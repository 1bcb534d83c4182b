#include "src/adaptive/adaptive_lock.hpp"

#include "src/obs/trace.hpp"
#include "src/platform/cycles.hpp"

namespace lockin {

AdaptiveLock::AdaptiveLock(AdaptiveLockConfig config)
    : AdaptiveLock(std::move(config), nullptr) {}

AdaptiveLock::AdaptiveLock(AdaptiveLockConfig config, std::unique_ptr<AdaptivePolicy> policy)
    : config_(std::move(config)),
      policy_(policy ? std::move(policy) : std::make_unique<EwmaThresholdPolicy>()),
      ttas_(config_.spin) {
  if (config_.epoch_acquires == 0) {
    config_.epoch_acquires = 1;
  }
}

void AdaptiveLock::LockBackend(AdaptiveBackend b) {
  switch (b) {
    case AdaptiveBackend::kSpin:
      ttas_.lock();
      return;
    case AdaptiveBackend::kSleep:
      futex_.lock();
      return;
    case AdaptiveBackend::kMutexee:
      mutexee_.lock();
      return;
  }
}

void AdaptiveLock::UnlockBackend(AdaptiveBackend b) {
  switch (b) {
    case AdaptiveBackend::kSpin:
      ttas_.unlock();
      return;
    case AdaptiveBackend::kSleep:
      futex_.unlock();
      return;
    case AdaptiveBackend::kMutexee:
      mutexee_.unlock();
      return;
  }
}

std::uint64_t AdaptiveLock::BackendSleepCalls() const {
  return futex_.futex_stats().sleeps.load(std::memory_order_relaxed) +
         mutexee_.futex_stats().sleeps.load(std::memory_order_relaxed);
}

void AdaptiveLock::lock() {
  // Per-thread sampling tick shared across adaptive locks: timings (two
  // rdtsc reads plus EWMA math) only for 1-in-2^kSampleShift acquisitions.
  thread_local std::uint64_t acquire_tick = 0;
  const bool sample = ((++acquire_tick) & ((std::uint64_t{1} << kSampleShift) - 1)) == 0;
  const std::uint64_t requested_at = sample ? ReadCycles() : 0;
  for (;;) {
    const AdaptiveBackend b = current_.load(std::memory_order_acquire);
    LockBackend(b);
    // Validation must be an acquire load: under ABA (switch away and back
    // between our backend acquire and here) the backend release we
    // synchronized with may predate the latest publish, and only reading
    // the publishing store with acquire semantics orders us after the
    // previous owner's plain writes (stats_, held_). Coherence guarantees
    // we never read a publish older than the one our backend release is
    // ordered after, so a passing validation always synchronizes with the
    // latest owner.
    if (current_.load(std::memory_order_acquire) == b) {
      held_ = b;
      sampled_ = sample;
      if (sample) {
        const std::uint64_t now = ReadCycles();
        wait_cycles_pending_ = now - requested_at;
        hold_start_cycles_ = now;
      }
      return;
    }
    UnlockBackend(b);
  }
}

void AdaptiveLock::OwnerEpochMaintenance() {
  const std::uint64_t sleep_calls = BackendSleepCalls();
  const LockSiteSnapshot snapshot = stats_.EndEpoch(sleep_calls - last_sleep_calls_);
  last_sleep_calls_ = sleep_calls;
  epochs_.fetch_add(1, std::memory_order_relaxed);

  const AdaptiveBackend next = policy_->Decide(snapshot, held_);
  if (next == AdaptiveBackend::kMutexee || held_ == AdaptiveBackend::kMutexee) {
    const MutexeeBudgets budgets = RetuneMutexeeBudgets(snapshot);
    mutexee_.Retune(budgets.spin_cycles, budgets.grace_cycles);
  }
  if (next != held_) {
    // Published while we still hold the old backend: every thread that
    // validates after this store validates against `next`. The release
    // pairs with the acquire validation load in lock(): the next owner
    // takes `next`'s backend, whose last release predates this store and so
    // orders nothing of ours, and only this pair makes our stats_ and
    // policy writes visible to it.
    current_.store(next, std::memory_order_release);
    switches_.fetch_add(1, std::memory_order_relaxed);
    // LockScope: epoch switches are rare (once per epoch at most) and
    // already on the owner's maintenance path, so the emit costs nothing
    // measurable. arg = the backend we switched *to*.
    TraceEmit(TraceEventKind::kEpochSwitch, static_cast<std::uint32_t>(next));
  }
}

void AdaptiveLock::unlock() {
  const AdaptiveBackend b = held_;
  if (sampled_) {
    stats_.RecordAcquire(wait_cycles_pending_, ReadCycles() - hold_start_cycles_);
  } else {
    stats_.RecordUnsampled();
  }
  if (stats_.epoch_acquires() >= config_.epoch_acquires) {
    OwnerEpochMaintenance();
  }
  UnlockBackend(b);
}

}  // namespace lockin
