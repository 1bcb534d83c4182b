// Futex-based condition variable usable with any lock in the library.
//
// The systems the paper modifies rely on pthread condition variables as
// well as mutexes (RocksDB "mostly relies on a conditional variable",
// section 6); swapping the lock requires a condvar that accepts it. This is
// a sequence-counter futex condvar: Wait atomically snapshots the sequence,
// releases the lock, sleeps until the sequence moves, and reacquires.
#ifndef SRC_LOCKS_CONDVAR_HPP_
#define SRC_LOCKS_CONDVAR_HPP_

#include <atomic>
#include <cstdint>

#include "src/futex/futex.hpp"
#include "src/locks/lock_api.hpp"
#include "src/platform/cacheline.hpp"
#include "src/platform/thread_annotations.hpp"

namespace lockin {

class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Releases `lock`, waits for a broadcast, reacquires. Any Lockable works,
  // a LockHandle included. Spurious wake-ups are possible (as with
  // pthreads); always wait in a predicate loop.
  template <Lockable L>
  void Wait(L& lock) LL_REQUIRES(lock) {
    const std::uint32_t seq = sequence_.load(std::memory_order_relaxed);
    lock.unlock();
    FutexWait(&sequence_, seq);
    lock.lock();
  }

  void Broadcast() {
    sequence_.fetch_add(1, std::memory_order_release);
    FutexWake(&sequence_, 1 << 30);
  }

 private:
  alignas(kCacheLineSize) std::atomic<std::uint32_t> sequence_{0};
};

}  // namespace lockin

#endif  // SRC_LOCKS_CONDVAR_HPP_
