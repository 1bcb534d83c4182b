#include "src/locks/futex_lock.hpp"

#include "src/obs/trace.hpp"

namespace lockin {

void FutexLock::LockSlow() {
  TraceContended();
  // Sleep phase (the spin phase ran inline and failed): advertise waiters
  // by moving to state 2, then futex-wait.
  std::uint32_t current = state_.load(std::memory_order_relaxed);
  for (;;) {
    if (current == 0) {
      // Grab directly into state 2: we cannot know whether other waiters
      // remain, so the next unlock must wake.
      if (state_.compare_exchange_weak(current, 2, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return;
      }
      continue;
    }
    if (current == 1) {
      if (!state_.compare_exchange_weak(current, 2, std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
        continue;
      }
      current = 2;
    }
    FutexWaitCounted(&state_, 2, &stats_);
    current = state_.load(std::memory_order_relaxed);
  }
}

}  // namespace lockin
