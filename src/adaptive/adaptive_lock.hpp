// Energy-aware adaptive lock: wraps a TTAS spinlock, a futex mutex and a
// MUTEXEE behind one Lockable and switches among them at runtime based on
// the profiler (src/adaptive/lock_stats.hpp) and the policy engine
// (src/adaptive/policy.hpp).
//
// Switching protocol (epoch-based, never while held):
//
//   * lock(): read the current backend b, acquire b, then re-validate that
//     b is still current. A stale acquisition is released and the acquire
//     retried on the new backend; a validated acquisition owns the adaptive
//     lock. Validation can only succeed for the backend published by the
//     previous owner, so two threads can never both validate -- mutual
//     exclusion reduces to the backends' own.
//
//   * unlock(): the owner records the acquisition into the profiler; every
//     `epoch_acquires` acquisitions it closes the epoch, asks the policy
//     for the next backend, retunes MUTEXEE's budgets when MUTEXEE is the
//     current or next backend, publishes the (possibly new) backend, and
//     only then releases. Publishing while still holding the backend
//     guarantees no other thread is between validation and release -- the
//     quiesce point the switch needs.
//
//   * waiters stranded inside a de-published backend drain naturally: each
//     eventually acquires it, fails validation, releases (waking the next
//     stranded waiter, if any) and retries on the current backend. Backends
//     are therefore never destroyed or re-created, only deselected.
#ifndef SRC_ADAPTIVE_ADAPTIVE_LOCK_HPP_
#define SRC_ADAPTIVE_ADAPTIVE_LOCK_HPP_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/adaptive/lock_stats.hpp"
#include "src/adaptive/policy.hpp"
#include "src/locks/futex_lock.hpp"
#include "src/locks/mutexee.hpp"
#include "src/locks/spinlocks.hpp"
#include "src/platform/cacheline.hpp"
#include "src/platform/thread_annotations.hpp"

namespace lockin {

struct AdaptiveLockConfig {
  // Epoch length in acquisitions. Shorter epochs react faster to phase
  // changes but run the policy more often; the policy itself is a handful
  // of comparisons, so even 64 is cheap.
  std::uint64_t epoch_acquires = 256;

  // TTAS backend construction parameters (yield_after matters on small
  // hosts). The futex-mutex backend has none, and the MUTEXEE backend
  // starts from MutexeeConfig{}: its budgets are retuned online.
  SpinConfig spin;
};

class LL_CAPABILITY("mutex") AdaptiveLock {
 public:
  // Wait/hold timings are sampled on 1-in-2^kSampleShift acquisitions per
  // thread, keeping the rdtsc reads off the uncontended fast path (the
  // profiler still counts every acquisition for epoch progress).
  static constexpr std::uint32_t kSampleShift = 3;
  // Every site starts on the middle ground until its first epoch closes.
  static constexpr AdaptiveBackend kInitialBackend = AdaptiveBackend::kMutexee;

  AdaptiveLock() : AdaptiveLock(AdaptiveLockConfig{}) {}
  explicit AdaptiveLock(AdaptiveLockConfig config);
  // Injects a custom policy (tests use a deterministic switcher); null
  // selects the EwmaThresholdPolicy.
  AdaptiveLock(AdaptiveLockConfig config, std::unique_ptr<AdaptivePolicy> policy);

  AdaptiveLock(const AdaptiveLock&) = delete;
  AdaptiveLock& operator=(const AdaptiveLock&) = delete;

  void lock() LL_ACQUIRE();
  bool try_lock() LL_TRY_ACQUIRE(true);  // may fail spuriously during a backend switch
  void unlock() LL_RELEASE();

  // Diagnostics. backend() is always safe; the snapshot accessors report
  // owner-written state and should be read while the lock is idle (tests
  // read them after joining their threads).
  AdaptiveBackend backend() const { return current_.load(std::memory_order_relaxed); }
  const char* backend_name() const { return AdaptiveBackendName(backend()); }
  std::uint64_t backend_switches() const {
    return switches_.load(std::memory_order_relaxed);
  }
  std::uint64_t epochs() const { return epochs_.load(std::memory_order_relaxed); }
  const LockSiteSnapshot& last_snapshot() const { return stats_.last_snapshot(); }
  const AdaptiveLockConfig& config() const { return config_; }

 private:
  // The backend helpers acquire/release the *wrapped* capabilities on
  // behalf of the AdaptiveLock capability callers see; the analysis cannot
  // equate the two (see LockAdapter in src/locks/lock_api.hpp).
  void LockBackend(AdaptiveBackend b) LL_NO_THREAD_SAFETY_ANALYSIS;
  bool TryLockBackend(AdaptiveBackend b) LL_NO_THREAD_SAFETY_ANALYSIS;
  void UnlockBackend(AdaptiveBackend b) LL_NO_THREAD_SAFETY_ANALYSIS;
  std::uint64_t BackendSleepCalls() const;
  void OwnerEpochMaintenance();

  AdaptiveLockConfig config_;
  std::unique_ptr<AdaptivePolicy> policy_;

  TtasLock ttas_;
  FutexLock futex_;
  MutexeeLock mutexee_;

  alignas(kCacheLineSize) std::atomic<AdaptiveBackend> current_{kInitialBackend};
  std::atomic<std::uint64_t> switches_{0};
  std::atomic<std::uint64_t> epochs_{0};

  // Owner-only state: written between a validated acquire and the matching
  // release, i.e. under the adaptive lock itself.
  AdaptiveBackend held_ = kInitialBackend;
  bool sampled_ = false;
  std::uint64_t wait_cycles_pending_ = 0;
  std::uint64_t hold_start_cycles_ = 0;
  std::uint64_t last_sleep_calls_ = 0;
  LockSiteStats stats_;
};

}  // namespace lockin

#endif  // SRC_ADAPTIVE_ADAPTIVE_LOCK_HPP_
