#include "src/sim/sim_lock.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

namespace lockin {
namespace {

// Spinners race with CAS: the winner is effectively random among the ones
// currently on a hardware context. Removes and returns it; -1 when none
// qualifies. `running` is the caller's scratch buffer.
int PopRandomRunningSpinner(const SimMachine& machine, Xoshiro256& rng,
                            std::deque<int>& spinners, std::vector<std::size_t>& running) {
  running.clear();
  for (std::size_t i = 0; i < spinners.size(); ++i) {
    if (machine.IsRunning(spinners[i])) {
      running.push_back(i);
    }
  }
  if (running.empty()) {
    return -1;
  }
  const std::size_t index = running[rng.NextBelow(running.size())];
  const int tid = spinners[index];
  spinners.erase(spinners.begin() + static_cast<std::ptrdiff_t>(index));
  return tid;
}

}  // namespace

// ---------------------------------------------------------------------------
// SimSpinLock
// ---------------------------------------------------------------------------

SimSpinLock::SimSpinLock(SimMachine* machine, SimSpinLockConfig config)
    : SimLock(machine), config_(std::move(config)), rng_(config_.rng_seed) {}

std::uint64_t SimSpinLock::HandoverDelay() const {
  const SimParams& p = machine_->params();
  const std::uint64_t base = 2 * p.line_transfer_cycles;  // invalidate + refill
  switch (config_.handover) {
    case SimSpinLockConfig::Handover::kQueue:
      return base;
    case SimSpinLockConfig::Handover::kBroadcast:
      return base + p.burst_per_waiter_cycles * waiters_.size();
    case SimSpinLockConfig::Handover::kAtomicStorm:
      // The winner's exchange must beat every other waiter's continuous
      // atomics, so the handover itself degrades with the waiter count.
      return base + (p.burst_per_waiter_cycles + p.tas_release_per_waiter_cycles) *
                        waiters_.size();
    case SimSpinLockConfig::Handover::kBackoff:
      // Backed-off waiters probe rarely: the storm is gone, but the winner
      // pays half an average backoff window of re-probe latency.
      return base + p.burst_per_waiter_cycles * waiters_.size() / 4 + 400;
    case SimSpinLockConfig::Handover::kCohort:
      // Most handovers stay within the socket (one intra-socket transfer);
      // cohort-budget expiries cross sockets. Modeled as the blended cost.
      return p.line_transfer_cycles + p.burst_per_waiter_cycles * waiters_.size() / 8 +
             p.max_coherence_cycles / 16;
  }
  return base;
}

std::uint64_t SimSpinLock::ReleaseCost() const {
  const SimParams& p = machine_->params();
  if (config_.handover == SimSpinLockConfig::Handover::kAtomicStorm) {
    // The release store must win the line against continuous atomics.
    return p.tas_release_per_waiter_cycles * waiters_.size();
  }
  return 0;
}

void SimSpinLock::Acquire(int tid, SimCallback on_acquired) {
  if (!held_ && waiters_.empty()) {
    held_ = true;
    stats_.acquires++;
    stats_.spin_handovers++;
    machine_->RunFor(tid, config_.uncontested_cycles, ActivityState::kCritical,
                     std::move(on_acquired));
    return;
  }
  pending_.Put(tid, std::move(on_acquired));
  waiters_.push_back(tid);
  machine_->RunFor(tid, SimMachine::kInfiniteWork, config_.spin_state, nullptr);
}

void SimSpinLock::FinalizeGrant(int tid) {
  machine_->CancelWork(tid);
  stats_.acquires++;
  stats_.spin_handovers++;
  SimCallback cb = pending_.Take(tid);
  cb();
}

void SimSpinLock::GrantTo(int tid, std::uint64_t delay) {
  machine_->engine().Schedule(delay, [this, tid] {
    if (machine_->IsRunning(tid)) {
      FinalizeGrant(tid);
      return;
    }
    // The chosen waiter is descheduled: the handover stalls until the
    // scheduler puts it back on a context (the FIFO convoy of Figure 11).
    machine_->NotifyWhenRunning(tid, [this, tid] { FinalizeGrant(tid); });
  });
}

void SimSpinLock::Release(int tid, SimCallback on_released) {
  assert(held_);
  const std::uint64_t release_cost = ReleaseCost();
  if (waiters_.empty()) {
    held_ = false;
    if (release_cost > 0) {
      machine_->RunFor(tid, release_cost, config_.spin_state, std::move(on_released));
    } else {
      on_released();
    }
    return;
  }

  // Pick the next owner.
  std::size_t index = 0;
  if (config_.discipline == SimSpinLockConfig::Discipline::kRandom) {
    // Barging: only a waiter that is on a context can win the race. Prefer a
    // random running waiter; fall back to FIFO when all are descheduled.
    running_scratch_.clear();
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      if (machine_->IsRunning(waiters_[i])) {
        running_scratch_.push_back(i);
      }
    }
    if (!running_scratch_.empty()) {
      index = running_scratch_[rng_.NextBelow(running_scratch_.size())];
    }
  }
  const int next = waiters_[index];
  waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(index));
  // held_ stays true: ownership passes directly.
  GrantTo(next, HandoverDelay());

  if (release_cost > 0) {
    machine_->RunFor(tid, release_cost, config_.spin_state, std::move(on_released));
  } else {
    on_released();
  }
}

// ---------------------------------------------------------------------------
// SimFutexMutex
// ---------------------------------------------------------------------------

SimFutexMutex::SimFutexMutex(SimMachine* machine, SimFutexMutexConfig config)
    : SimLock(machine), config_(std::move(config)), futex_(machine), rng_(config_.rng_seed) {}

void SimFutexMutex::TakeOwnership(int tid, bool via_futex) {
  held_ = true;
  stats_.acquires++;
  if (via_futex) {
    stats_.futex_handovers++;
  } else {
    stats_.spin_handovers++;
  }
  assert(pending_.Has(tid));
  SimCallback cb = pending_.Take(tid);
  cb();
}

void SimFutexMutex::Acquire(int tid, SimCallback on_acquired) {
  if (!held_) {
    // Barging: arrivals take a free lock immediately, even past sleepers.
    held_ = true;
    stats_.acquires++;
    stats_.spin_handovers++;
    machine_->RunFor(tid, config_.uncontested_cycles, ActivityState::kCritical,
                     std::move(on_acquired));
    return;
  }
  pending_.Put(tid, std::move(on_acquired));
  spinners_.push_back(tid);
  machine_->RunFor(tid, config_.spin_cycles, config_.spin_state, [this, tid] {
    // Spin budget exhausted: go to sleep.
    auto it = std::find(spinners_.begin(), spinners_.end(), tid);
    if (it != spinners_.end()) {
      spinners_.erase(it);
      EnterSleepLoop(tid);
    }
  });
}

void SimFutexMutex::EnterSleepLoop(int tid) {
  // glibc's sleep path exchanges the state word before FUTEX_WAIT and owns
  // the lock outright when it reads 0 -- a releaser that slipped between our
  // spin phase and here can never be missed. Without this check the lock
  // can sit free with every waiter asleep (no barging arrival would rescue
  // it, e.g. while the adaptive runtime drains this backend). The exchange
  // pays one contended line round trip before ownership is decided.
  if (!held_) {
    const std::uint64_t exchange_cost = 2 * machine_->params().line_transfer_cycles;
    machine_->RunFor(tid, exchange_cost, config_.spin_state, [this, tid] {
      if (!held_) {
        TakeOwnership(tid, /*via_futex=*/false);
      } else {
        EnterSleepLoop(tid);  // lost the race after all; sleep for real
      }
    });
    return;
  }
  futex_.Sleep(tid, 0, [this, tid](SimFutex::WakeReason) {
    // Running again: retry the acquire.
    if (!held_) {
      TakeOwnership(tid, /*via_futex=*/true);
      return;
    }
    // Lock stolen during the turnaround (a third thread barged before the
    // woken thread was ready to execute, section 5.1). glibc retries its
    // short spin phase before sleeping again, keeping the context active
    // and adding contention -- then wastes another futex round-trip.
    stats_.resleeps++;
    spinners_.push_back(tid);
    machine_->RunFor(tid, config_.spin_cycles, config_.spin_state, [this, tid] {
      auto it = std::find(spinners_.begin(), spinners_.end(), tid);
      if (it != spinners_.end()) {
        spinners_.erase(it);
        EnterSleepLoop(tid);
      }
    });
  });
}

void SimFutexMutex::TryGrantToSpinner() {
  if (held_ || spinners_.empty()) {
    return;
  }
  const int tid = PopRandomRunningSpinner(*machine_, rng_, spinners_, running_scratch_);
  if (tid < 0) {
    return;
  }
  machine_->CancelWork(tid);
  TakeOwnership(tid, /*via_futex=*/false);
}

void SimFutexMutex::Release(int tid, SimCallback on_released) {
  assert(held_);
  held_ = false;
  const bool have_sleepers = futex_.sleeper_count() > 0 || futex_.entering_count() > 0;

  if (!spinners_.empty()) {
    // A spinner observes the release after the line transfers plus the CAS
    // race among all concurrently retrying spinners.
    const SimParams& p = machine_->params();
    const std::uint64_t delay =
        2 * p.line_transfer_cycles + p.burst_per_waiter_cycles * spinners_.size();
    machine_->engine().Schedule(delay, [this] { TryGrantToSpinner(); });
  }
  if (have_sleepers) {
    // The wake call sits on the releaser's critical path -- MUTEX's core
    // inefficiency for short critical sections.
    futex_.Wake(tid, 1, std::move(on_released));
    return;
  }
  on_released();
}

// ---------------------------------------------------------------------------
// SimMutexee
// ---------------------------------------------------------------------------

SimMutexee::SimMutexee(SimMachine* machine, SimMutexeeConfig config)
    : SimLock(machine), config_(std::move(config)), futex_(machine), rng_(config_.rng_seed) {}

void SimMutexee::RecordWindow(bool futex_handover) {
  window_acquires_++;
  if (futex_handover) {
    window_futex_++;
  }
  if (window_acquires_ >= MutexeeLock::kAdaptPeriod) {
    const double ratio =
        static_cast<double>(window_futex_) / static_cast<double>(window_acquires_);
    mode_ = ratio > config_.base.futex_ratio_threshold ? MutexeeLock::Mode::kMutex
                                                       : MutexeeLock::Mode::kSpin;
    window_acquires_ = 0;
    window_futex_ = 0;
  }
}

void SimMutexee::TakeOwnership(int tid, int kind) {
  held_ = true;
  stats_.acquires++;
  switch (kind) {
    case 0:
      stats_.spin_handovers++;
      break;
    case 1:
      stats_.futex_handovers++;
      break;
    default:
      stats_.timeout_handovers++;
      break;
  }
  RecordWindow(kind == 1);
  assert(pending_.Has(tid));
  SimCallback cb = pending_.Take(tid);
  cb();
}

void SimMutexee::Acquire(int tid, SimCallback on_acquired) {
  if (!held_) {
    held_ = true;
    stats_.acquires++;
    stats_.spin_handovers++;
    RecordWindow(false);
    machine_->RunFor(tid, config_.uncontested_cycles, ActivityState::kCritical,
                     std::move(on_acquired));
    return;
  }
  pending_.Put(tid, std::move(on_acquired));
  spinners_.push_back(tid);
  const std::uint64_t budget = mode_ == MutexeeLock::Mode::kSpin
                                   ? config_.base.spin_mode_lock_cycles
                                   : config_.base.mutex_mode_lock_cycles;
  machine_->RunFor(tid, budget, ActivityState::kSpinMbar, [this, tid] {
    auto it = std::find(spinners_.begin(), spinners_.end(), tid);
    if (it != spinners_.end()) {
      spinners_.erase(it);
      EnterSleepLoop(tid);
    }
  });
}

void SimMutexee::EnterSleepLoop(int tid) {
  // Same pre-sleep recheck as the native CAS loop (state 0 -> acquired): a
  // release between spin expiry and the sleep call must not be lost. The
  // CAS pays one contended line round trip.
  if (!held_) {
    const std::uint64_t exchange_cost = 2 * machine_->params().line_transfer_cycles;
    machine_->RunFor(tid, exchange_cost, ActivityState::kSpinMbar, [this, tid] {
      if (!held_) {
        TakeOwnership(tid, /*kind=*/0);
      } else {
        EnterSleepLoop(tid);
      }
    });
    return;
  }
  const std::uint64_t timeout_cycles =
      config_.base.sleep_timeout_ns == 0
          ? 0
          : static_cast<std::uint64_t>(static_cast<double>(config_.base.sleep_timeout_ns) *
                                       machine_->params().cycles_per_second / 1e9);
  futex_.Sleep(tid, timeout_cycles, [this, tid](SimFutex::WakeReason reason) {
    if (reason == SimFutex::WakeReason::kTimedOut) {
      // Timeout protocol: spin until acquired; never sleep again.
      BecomePersistentSpinner(tid);
      return;
    }
    if (!held_) {
      TakeOwnership(tid, /*kind=*/1);
      return;
    }
    stats_.resleeps++;
    EnterSleepLoop(tid);
  });
}

void SimMutexee::BecomePersistentSpinner(int tid) {
  if (!held_) {
    TakeOwnership(tid, /*kind=*/2);
    return;
  }
  spinners_.push_back(tid);
  machine_->RunFor(tid, SimMachine::kInfiniteWork, ActivityState::kSpinMbar, nullptr);
}

void SimMutexee::Release(int tid, SimCallback on_released) {
  assert(held_);
  // User-space handover: the defining MUTEXEE fast path. The spinners race
  // with CAS, so the recipient is a random *running* spinner. No futex
  // calls; sleepers keep sleeping (fairness traded for energy, sec 4.4).
  const int next = PopRandomRunningSpinner(*machine_, rng_, spinners_, running_scratch_);
  if (next >= 0) {
    const SimParams& p = machine_->params();
    const std::uint64_t delay =
        2 * p.line_transfer_cycles + p.burst_per_waiter_cycles * spinners_.size();
    machine_->engine().Schedule(delay, [this, next] {
      machine_->CancelWork(next);
      held_ = false;  // momentary; TakeOwnership re-sets it
      TakeOwnership(next, /*kind=*/0);
    });
    on_released();
    return;
  }

  held_ = false;
  const bool have_sleepers = futex_.sleeper_count() > 0 || futex_.entering_count() > 0;
  if (!have_sleepers) {
    on_released();
    return;
  }
  if (!config_.base.enable_unlock_grace) {
    futex_.Wake(tid, 1, std::move(on_released));
    return;
  }
  // Grace window: wait ~the maximum coherence latency in user space; if an
  // arriving thread takes the lock meanwhile, skip the wake entirely. The
  // continuation parks in the releaser's slot (one release in flight per
  // tid) so the grace closure stays thin.
  const std::uint64_t grace = mode_ == MutexeeLock::Mode::kSpin
                                  ? config_.base.spin_mode_grace_cycles
                                  : config_.base.mutex_mode_grace_cycles;
  release_cont_.Put(tid, std::move(on_released));
  machine_->RunFor(tid, grace, ActivityState::kSpinMbar, [this, tid] {
    SimCallback done = release_cont_.Take(tid);
    if (held_) {
      stats_.wake_skips++;
      done();
      return;
    }
    futex_.Wake(tid, 1, std::move(done));
  });
}

// ---------------------------------------------------------------------------
// SimAdaptiveLock
// ---------------------------------------------------------------------------

SimAdaptiveLock::SimAdaptiveLock(SimMachine* machine, const SimLockOptions& inner_options)
    : SimLock(machine) {
  inner_[static_cast<int>(AdaptiveBackend::kSpin)] =
      MakeSimLock("TTAS", machine, inner_options);
  inner_[static_cast<int>(AdaptiveBackend::kSleep)] =
      MakeSimLock("MUTEX", machine, inner_options);
  inner_[static_cast<int>(AdaptiveBackend::kMutexee)] =
      MakeSimLock("MUTEXEE", machine, inner_options);
}

std::uint64_t SimAdaptiveLock::InnerSleepCalls() const {
  std::uint64_t sleeps = 0;
  for (const auto& inner : inner_) {
    if (const SimFutex::Stats* fs = inner->futex_stats()) {
      sleeps += fs->sleep_calls;
    }
  }
  return sleeps;
}

void SimAdaptiveLock::OnInnerAcquired(int tid, SimTime requested_at) {
  const SimTime now = machine_->engine().now();
  pending_wait_cycles_ = now - requested_at;
  holder_granted_at_ = now;
  SimCallback cb = acquire_cont_.Take(tid);
  cb();
}

void SimAdaptiveLock::IssueAcquire(AdaptiveBackend b, int tid, SimCallback on_acquired,
                                   SimTime requested_at) {
  ++outstanding_;
  acquire_cont_.Put(tid, std::move(on_acquired));
  Inner(b).Acquire(tid, [this, tid, requested_at] { OnInnerAcquired(tid, requested_at); });
}

void SimAdaptiveLock::Acquire(int tid, SimCallback on_acquired) {
  const SimTime requested_at = machine_->engine().now();
  if (switching_) {
    // Park outside the draining backend, burning spin power like the native
    // lock's retry loop would.
    parked_.push_back(Parked{tid, std::move(on_acquired), requested_at});
    machine_->RunFor(tid, SimMachine::kInfiniteWork, ActivityState::kSpinMbar, nullptr);
    return;
  }
  IssueAcquire(current_, tid, std::move(on_acquired), requested_at);
}

void SimAdaptiveLock::EpochMaintenance() {
  const std::uint64_t sleeps = InnerSleepCalls();
  const LockSiteSnapshot snapshot = profile_.EndEpoch(sleeps - last_sleep_calls_);
  last_sleep_calls_ = sleeps;
  ++epochs_;
  if (switching_) {
    return;  // one switch at a time; the policy re-decides next epoch
  }
  const AdaptiveBackend next = policy_.Decide(snapshot, current_);
  if (next == AdaptiveBackend::kMutexee || current_ == AdaptiveBackend::kMutexee) {
    // Mirror the native runtime: keep MUTEXEE's budgets matched to the
    // observed regime, inside the fixed retune bounds.
    const MutexeeBudgets budgets = RetuneMutexeeBudgets(snapshot);
    static_cast<SimMutexee&>(Inner(AdaptiveBackend::kMutexee))
        .Retune(budgets.spin_cycles, budgets.grace_cycles);
  }
  if (next != current_) {
    switching_ = true;
    next_ = next;
  }
}

void SimAdaptiveLock::Release(int tid, SimCallback on_released) {
  const SimTime now = machine_->engine().now();
  profile_.RecordAcquire(pending_wait_cycles_, now - holder_granted_at_);
  if (profile_.epoch_acquires() >= kEpochAcquires) {
    EpochMaintenance();
  }
  // Every in-flight acquisition targets the same backend (a switch only
  // completes after they drain), so the holder releases the active one.
  release_cont_.Put(tid, std::move(on_released));
  Inner(current_).Release(tid, [this, tid] {
    --outstanding_;
    MaybeFinishSwitch();
    SimCallback cb = release_cont_.Take(tid);
    cb();
  });
}

void SimAdaptiveLock::MaybeFinishSwitch() {
  if (!switching_ || outstanding_ != 0) {
    return;
  }
  current_ = next_;
  switching_ = false;
  ++switches_;
  // LockScope: same kEpochSwitch record the native AdaptiveLock emits,
  // stamped with sim time (the switch is a lock-wide instant, not tied to
  // one simulated thread; it lands on track 0).
  machine_->engine().EmitTrace(TraceEventKind::kEpochSwitch, 0,
                               static_cast<std::uint32_t>(current_));
  std::vector<Parked> parked = std::move(parked_);
  parked_.clear();
  for (Parked& p : parked) {
    machine_->CancelWork(p.tid);  // end the parking spin
    IssueAcquire(current_, p.tid, std::move(p.on_acquired), p.requested_at);
  }
}

const SimLockStats& SimAdaptiveLock::stats() const {
  aggregated_ = SimLockStats{};
  for (const auto& inner : inner_) {
    aggregated_ += inner->stats();
  }
  return aggregated_;
}

const SimFutex::Stats* SimAdaptiveLock::futex_stats() const {
  aggregated_futex_ = SimFutex::Stats{};
  for (const auto& inner : inner_) {
    if (const SimFutex::Stats* fs = inner->futex_stats()) {
      aggregated_futex_ += *fs;
    }
  }
  return &aggregated_futex_;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<SimLock> MakeSimLock(const std::string& name, SimMachine* machine,
                                     const SimLockOptions& options) {
  if (name == "ADAPTIVE") {
    return std::make_unique<SimAdaptiveLock>(machine, options);
  }
  if (name == "MUTEX") {
    return std::make_unique<SimFutexMutex>(machine, SimFutexMutexConfig{});
  }
  if (name == "MUTEXEE" || name == "MUTEXEE-TO") {
    SimMutexeeConfig config;
    config.base = options.mutexee;
    config.name = name;
    if (name == "MUTEXEE") {
      config.base.sleep_timeout_ns = 0;
    }
    return std::make_unique<SimMutexee>(machine, config);
  }

  SimSpinLockConfig config;
  config.rng_seed = options.rng_seed;
  config.name = name;
  config.uncontested_cycles = 65;  // Table 2: simple spinlocks ~17 Macq/s
  if (name == "TAS") {
    config.discipline = SimSpinLockConfig::Discipline::kRandom;
    config.handover = SimSpinLockConfig::Handover::kAtomicStorm;
    config.spin_state = ActivityState::kSpinGlobal;
    return std::make_unique<SimSpinLock>(machine, config);
  }
  if (name == "TTAS") {
    config.discipline = SimSpinLockConfig::Discipline::kRandom;
    config.handover = SimSpinLockConfig::Handover::kBroadcast;
    config.spin_state = ActivityState::kSpinMbar;
    return std::make_unique<SimSpinLock>(machine, config);
  }
  if (name == "TICKET") {
    config.discipline = SimSpinLockConfig::Discipline::kFifo;
    config.handover = SimSpinLockConfig::Handover::kBroadcast;
    config.spin_state = ActivityState::kSpinMbar;
    return std::make_unique<SimSpinLock>(machine, config);
  }
  if (name == "TAS-BO") {
    config.discipline = SimSpinLockConfig::Discipline::kRandom;
    config.handover = SimSpinLockConfig::Handover::kBackoff;
    config.spin_state = ActivityState::kSpinMbar;  // waiters mostly paused
    return std::make_unique<SimSpinLock>(machine, config);
  }
  if (name == "COHORT") {
    config.discipline = SimSpinLockConfig::Discipline::kFifo;
    config.handover = SimSpinLockConfig::Handover::kCohort;
    config.spin_state = ActivityState::kSpinMbar;
    config.uncontested_cycles = 110;  // two-level acquire path
    return std::make_unique<SimSpinLock>(machine, config);
  }
  if (name == "MCS" || name == "CLH") {
    config.discipline = SimSpinLockConfig::Discipline::kFifo;
    config.handover = SimSpinLockConfig::Handover::kQueue;
    config.spin_state = ActivityState::kSpinMbar;
    config.uncontested_cycles = 132;  // queue-node management (Table 2: ~12 Macq/s)
    return std::make_unique<SimSpinLock>(machine, config);
  }
  throw std::invalid_argument("unknown simulated lock: '" + name +
                              "'; simulated locks: MUTEX TAS TTAS TICKET MCS CLH TAS-BO "
                              "COHORT MUTEXEE MUTEXEE-TO ADAPTIVE");
}

}  // namespace lockin
