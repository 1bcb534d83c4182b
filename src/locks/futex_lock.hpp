// FutexLock: a faithful re-implementation of the glibc pthread mutex
// acquire/release protocol (Franke et al., "Fuss, Futexes and Furwocks").
//
// This is the paper's baseline MUTEX, glibc's default mutex: one CAS, one
// `pause` (the paper keeps glibc's pause for MUTEX, while the spinlocks and
// MUTEXEE use mfence), then sleep with FUTEX_WAIT. Release stores 0 in user
// space and wakes one sleeper. The paper shows (section 5.1) that this "can
// result in very poor performance for critical sections of up to 4000
// cycles" because threads are put to sleep although the queueing time is
// below the futex-sleep latency -- the pathology MUTEXEE fixes.
//
// State protocol (same as glibc's lowlevellock):
//   0 = free, 1 = locked/no waiters, 2 = locked/maybe waiters.
// Lock state and the waiter mark share one word, and FUTEX_WAIT re-checks
// it in the kernel, so no cross-word ordering is needed (cf. MutexeeLock).
#ifndef SRC_LOCKS_FUTEX_LOCK_HPP_
#define SRC_LOCKS_FUTEX_LOCK_HPP_

#include <atomic>
#include <cstdint>

#include "src/futex/futex.hpp"
#include "src/platform/cacheline.hpp"
#include "src/platform/spin_hint.hpp"
#include "src/platform/thread_annotations.hpp"

namespace lockin {

class LL_CAPABILITY("mutex") FutexLock {
 public:
  // Fast paths are inline (the uncontested CAS / release store is what the
  // devirtualized bench tier measures); the futex sleep phase stays
  // out-of-line in futex_lock.cpp.
  void lock() LL_ACQUIRE() {
    std::uint32_t expected = 0;
    if (state_.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;
    }
    SpinPause(PauseKind::kPause);
    LockSlow();
  }

  void unlock() LL_RELEASE() {
    // Release in user space; wake one sleeper only when waiters were
    // advertised (state 2).
    if (state_.exchange(0, std::memory_order_release) == 2) {
      FutexWakeCounted(&state_, 1, &stats_);
    }
  }

  const FutexStats& futex_stats() const { return stats_; }

 private:
  // Sleep phase: advertise waiters by moving to state 2, then futex-wait.
  void LockSlow();

  FutexStats stats_;
  alignas(kCacheLineSize) std::atomic<std::uint32_t> state_{0};
};

}  // namespace lockin

#endif  // SRC_LOCKS_FUTEX_LOCK_HPP_
