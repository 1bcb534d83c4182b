// Simulated lock algorithms.
//
// Each lock model reproduces the *handover behaviour* of its native
// counterpart in src/locks: who waits in which power state, what a release
// costs, who gets the lock next, and when futexes are involved. The models
// are event-driven against SimMachine/SimFutex; their parameters are the
// paper's measured latencies (src/sim/params.hpp).
//
// The discipline/handover distinctions that drive the paper's results:
//   * TAS: global spinning, random grant, release pays for the atomic storm;
//   * TTAS: local spinning, random grant, release triggers an invalidation
//     burst proportional to the number of waiters;
//   * TICKET: local spinning, FIFO grant, same burst; FIFO is what collapses
//     under oversubscription (a descheduled next-in-line stalls everyone);
//   * MCS/CLH: local spinning on a private line, FIFO, constant handover;
//   * MUTEX: spin a few hundred cycles then futex-sleep; release wakes one
//     sleeper (wake call on the releaser's critical path) and any arriving
//     thread can barge, sending the woken thread straight back to sleep;
//   * MUTEXEE: spin ~8000 cycles (mfence pausing), user-space handover to a
//     spinning waiter whenever one exists, grace-window before waking a
//     sleeper, spin/mutex mode adaptation, optional sleep timeout.
#ifndef SRC_SIM_SIM_LOCK_HPP_
#define SRC_SIM_SIM_LOCK_HPP_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "src/adaptive/lock_stats.hpp"
#include "src/adaptive/policy.hpp"
#include "src/locks/mutexee.hpp"
#include "src/platform/rng.hpp"
#include "src/sim/callback.hpp"
#include "src/sim/futex_model.hpp"
#include "src/sim/machine.hpp"

namespace lockin {

struct SimLockStats {
  std::uint64_t acquires = 0;
  std::uint64_t spin_handovers = 0;
  std::uint64_t futex_handovers = 0;
  std::uint64_t timeout_handovers = 0;
  std::uint64_t wake_skips = 0;
  std::uint64_t resleeps = 0;  // woken threads that found the lock taken

  SimLockStats& operator+=(const SimLockStats& other) {
    acquires += other.acquires;
    spin_handovers += other.spin_handovers;
    futex_handovers += other.futex_handovers;
    timeout_handovers += other.timeout_handovers;
    wake_skips += other.wake_skips;
    resleeps += other.resleeps;
    return *this;
  }
};

class SimLock {
 public:
  explicit SimLock(SimMachine* machine) : machine_(machine) {}
  virtual ~SimLock() = default;

  // The calling thread (running) requests the lock; `on_acquired` fires,
  // with the thread running, once it owns the lock. Waiting continuations
  // park in per-thread slots (one outstanding acquire per thread), not in
  // per-acquire heap closures -- see callback.hpp.
  virtual void Acquire(int tid, SimCallback on_acquired) = 0;

  // Releases the lock; `on_released` fires when the release path (user-space
  // store, plus any futex wake / grace wait) has finished on the releaser.
  virtual void Release(int tid, SimCallback on_released) = 0;

  virtual std::string name() const = 0;

  // Virtual so delegating locks (SimAdaptiveLock) can aggregate their inner
  // locks' counters.
  virtual const SimLockStats& stats() const { return stats_; }
  virtual const SimFutex::Stats* futex_stats() const { return nullptr; }

 protected:
  SimMachine* machine_;
  SimLockStats stats_;
};

// ---------------------------------------------------------------------------
// Spinlocks (TAS / TTAS / TICKET / MCS / CLH).
// ---------------------------------------------------------------------------
struct SimSpinLockConfig {
  enum class Discipline { kFifo, kRandom };
  enum class Handover {
    kQueue,      // constant-cost private-line handover (MCS, CLH)
    kBroadcast,  // invalidation burst over all waiters (TTAS, TICKET)
    kAtomicStorm,// TAS: burst + expensive release under contention
    kBackoff,    // TAS-BO: backoff drains the storm; adds re-probe latency
    kCohort      // COHORT: intra-socket handover most of the time
  };
  Discipline discipline = Discipline::kFifo;
  Handover handover = Handover::kBroadcast;
  ActivityState spin_state = ActivityState::kSpinMbar;
  std::string name = "TICKET";
  std::uint64_t rng_seed = 42;
  // Uncontested acquire+release overhead; differs per algorithm complexity
  // (Table 2 of the paper: simple spinlocks ~17 Macq/s single-threaded,
  // MCS ~12 Macq/s because of queue-node management).
  std::uint64_t uncontested_cycles = 65;
};

class SimSpinLock final : public SimLock {
 public:
  SimSpinLock(SimMachine* machine, SimSpinLockConfig config);

  void Acquire(int tid, SimCallback on_acquired) override;
  void Release(int tid, SimCallback on_released) override;
  std::string name() const override { return config_.name; }

 private:
  std::uint64_t HandoverDelay() const;
  std::uint64_t ReleaseCost() const;
  void GrantTo(int tid, std::uint64_t delay);
  void FinalizeGrant(int tid);

  SimSpinLockConfig config_;
  Xoshiro256 rng_;
  bool held_ = false;
  std::deque<int> waiters_;               // tids in arrival order
  SlotVector<SimCallback> pending_;       // tid -> on_acquired
  std::vector<std::size_t> running_scratch_;  // random-grant candidate buffer
};

// ---------------------------------------------------------------------------
// MUTEX (futex-based, glibc protocol).
// ---------------------------------------------------------------------------
struct SimFutexMutexConfig {
  std::uint64_t spin_cycles = 300;  // "threads spin up to a few hundred cycles"
  ActivityState spin_state = ActivityState::kSpinPause;  // glibc uses pause
  std::string name = "MUTEX";
  // Sanity checks + sleeper bookkeeping make MUTEX slower than simple
  // spinlocks even uncontested (Table 2: 11.88 vs ~17 Macq/s).
  std::uint64_t uncontested_cycles = 135;
  std::uint64_t rng_seed = 42;
};

class SimFutexMutex final : public SimLock {
 public:
  SimFutexMutex(SimMachine* machine, SimFutexMutexConfig config);

  void Acquire(int tid, SimCallback on_acquired) override;
  void Release(int tid, SimCallback on_released) override;
  std::string name() const override { return config_.name; }
  const SimFutex::Stats* futex_stats() const override { return &futex_.stats(); }

 private:
  void EnterSleepLoop(int tid);
  void TryGrantToSpinner();
  void TakeOwnership(int tid, bool via_futex);

  SimFutexMutexConfig config_;
  SimFutex futex_;
  Xoshiro256 rng_;
  bool held_ = false;
  std::deque<int> spinners_;
  SlotVector<SimCallback> pending_;  // tid -> on_acquired
  std::vector<std::size_t> running_scratch_;
};

// ---------------------------------------------------------------------------
// MUTEXEE.
// ---------------------------------------------------------------------------
struct SimMutexeeConfig {
  MutexeeConfig base;           // budgets/timeout/adaptation shared with native
  std::string name = "MUTEXEE";
  // Cheaper than MUTEX (no waiter bookkeeping on the fast path) but pays
  // for periodic adaptation (Table 2: 13.32 vs 11.88 / ~17 Macq/s).
  std::uint64_t uncontested_cycles = 110;
  std::uint64_t rng_seed = 42;
};

class SimMutexee final : public SimLock {
 public:
  SimMutexee(SimMachine* machine, SimMutexeeConfig config);

  void Acquire(int tid, SimCallback on_acquired) override;
  void Release(int tid, SimCallback on_released) override;
  std::string name() const override { return config_.name; }
  const SimFutex::Stats* futex_stats() const override { return &futex_.stats(); }

  MutexeeLock::Mode mode() const { return mode_; }

  // Online retuning of the spin-mode budgets, mirroring the native
  // MutexeeLock::Retune. Safe between events: budgets are read once per
  // acquire/release.
  void Retune(std::uint64_t spin_lock_cycles, std::uint64_t spin_grace_cycles) {
    config_.base.spin_mode_lock_cycles = spin_lock_cycles;
    config_.base.spin_mode_grace_cycles = spin_grace_cycles;
  }
  std::uint64_t spin_lock_budget() const { return config_.base.spin_mode_lock_cycles; }

 private:
  void EnterSleepLoop(int tid);
  void BecomePersistentSpinner(int tid);
  void TakeOwnership(int tid, int kind);  // 0 spin, 1 futex, 2 timeout
  void RecordWindow(bool futex_handover);

  SimMutexeeConfig config_;
  SimFutex futex_;
  Xoshiro256 rng_;
  bool held_ = false;
  std::deque<int> spinners_;
  SlotVector<SimCallback> pending_;       // tid -> on_acquired
  SlotVector<SimCallback> release_cont_;  // tid -> on_released (grace window)
  std::vector<std::size_t> running_scratch_;
  MutexeeLock::Mode mode_ = MutexeeLock::Mode::kSpin;
  std::uint64_t window_acquires_ = 0;
  std::uint64_t window_futex_ = 0;
};

// ---------------------------------------------------------------------------
// ADAPTIVE: the energy-aware adaptive runtime (src/adaptive/), simulated.
//
// Delegates to inner TTAS / MUTEX / MUTEXEE models and re-decides the
// backend per epoch through the *same* policy engine the native runtime
// uses (src/adaptive/policy.hpp). Switching is drain-based: once the policy
// picks a new backend, new arrivals park (spinning) outside the old one;
// when the old backend's in-flight acquisitions have drained, the parked
// arrivals are flushed to the new backend -- the simulated counterpart of
// the native lock's validate-on-acquire epoch switch.
// ---------------------------------------------------------------------------
class SimAdaptiveLock final : public SimLock {
 public:
  // Epoch length in acquisitions (native: AdaptiveLockConfig, 256). Unlike
  // the native lock, every simulated acquisition is timed.
  static constexpr std::uint64_t kEpochAcquires = 128;

  // `inner_options` configures the delegate locks (MUTEXEE budgets, seeds).
  SimAdaptiveLock(SimMachine* machine, const struct SimLockOptions& inner_options);

  void Acquire(int tid, SimCallback on_acquired) override;
  void Release(int tid, SimCallback on_released) override;
  std::string name() const override { return "ADAPTIVE"; }
  const SimLockStats& stats() const override;
  const SimFutex::Stats* futex_stats() const override;

  AdaptiveBackend backend() const { return current_; }
  std::uint64_t backend_switches() const { return switches_; }
  std::uint64_t epochs() const { return epochs_; }

 private:
  struct Parked {
    int tid;
    SimCallback on_acquired;
    SimTime requested_at;
  };

  SimLock& Inner(AdaptiveBackend b) { return *inner_[static_cast<int>(b)]; }
  const SimLock& Inner(AdaptiveBackend b) const { return *inner_[static_cast<int>(b)]; }
  void IssueAcquire(AdaptiveBackend b, int tid, SimCallback on_acquired,
                    SimTime requested_at);
  void OnInnerAcquired(int tid, SimTime requested_at);
  void EpochMaintenance();
  void MaybeFinishSwitch();
  std::uint64_t InnerSleepCalls() const;

  EwmaThresholdPolicy policy_;
  std::unique_ptr<SimLock> inner_[kAdaptiveBackendCount];
  LockSiteStats profile_;

  AdaptiveBackend current_ = AdaptiveBackend::kMutexee;
  bool switching_ = false;
  AdaptiveBackend next_ = AdaptiveBackend::kMutexee;
  std::uint64_t outstanding_ = 0;  // issued to the active backend, not yet released
  std::vector<Parked> parked_;     // arrivals held back during a switch
  // Per-thread user continuations around the inner lock (the inner call
  // gets a thin {this, tid} closure instead of a fat wrapper).
  SlotVector<SimCallback> acquire_cont_;
  SlotVector<SimCallback> release_cont_;
  std::uint64_t switches_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t last_sleep_calls_ = 0;

  // Owner bookkeeping (one holder at a time by construction).
  SimTime holder_granted_at_ = 0;
  std::uint64_t pending_wait_cycles_ = 0;

  mutable SimLockStats aggregated_;
  mutable SimFutex::Stats aggregated_futex_;
};

// ---------------------------------------------------------------------------
// Factory: paper lock names -> simulated locks.
// ---------------------------------------------------------------------------
struct SimLockOptions {
  MutexeeConfig mutexee;  // budgets / timeout for MUTEXEE variants
  std::uint64_t rng_seed = 42;
};

// Names: MUTEX, TAS, TTAS, TICKET, MCS, CLH, TAS-BO, COHORT, MUTEXEE,
// MUTEXEE-TO, ADAPTIVE. Any other name (PTHREAD, a native-only lock,
// included) raises std::invalid_argument listing these, the contract of
// MakeLockOrThrow.
std::unique_ptr<SimLock> MakeSimLock(const std::string& name, SimMachine* machine,
                                     const SimLockOptions& options = {});

}  // namespace lockin

#endif  // SRC_SIM_SIM_LOCK_HPP_
