// Extension locks beyond the paper's core six (its related-work section
// cites both): a test-and-set lock with exponential backoff (Anderson 1990;
// Agarwal & Cherian 1989) and a two-level cohort lock (Dice, Marathe &
// Shavit 2012) that keeps a lock inside one NUMA socket for a bounded
// number of handovers before releasing it globally.
#ifndef SRC_LOCKS_BACKOFF_HPP_
#define SRC_LOCKS_BACKOFF_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/platform/cacheline.hpp"
#include "src/platform/rng.hpp"
#include "src/platform/spin_hint.hpp"
#include "src/platform/thread_annotations.hpp"
#include "src/locks/spinlocks.hpp"

namespace lockin {

// TAS with randomized exponential backoff: each failed exchange doubles the
// backoff window and waits a random fraction of it, draining the atomic
// storm that makes plain TAS's release so expensive (Figure 11). Waits
// pause with mfence; the SpinConfig only sets the yield threshold.
class LL_CAPABILITY("mutex") BackoffTasLock {
 public:
  static constexpr std::uint64_t kMinBackoffCycles = 128;    // initial window
  static constexpr std::uint64_t kMaxBackoffCycles = 16384;  // cap (bounds unfairness)

  BackoffTasLock() = default;
  explicit BackoffTasLock(SpinConfig spin) : spin_(spin) {}

  void lock() LL_ACQUIRE();
  bool try_lock() LL_TRY_ACQUIRE(true);
  void unlock() LL_RELEASE();

 private:
  SpinConfig spin_{};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> locked_{0};
};

// Two-level cohort lock: one TTAS per socket plus a global TICKET. A
// releasing thread hands over within its socket cohort for up to
// kMaxCohortHandovers before releasing the global lock, trading (bounded)
// fairness for far fewer cross-socket line transfers -- the same
// fairness/efficiency dial the paper turns with MUTEXEE, in spinlock form.
class LL_CAPABILITY("mutex") CohortLock {
 public:
  static constexpr int kSockets = 2;
  static constexpr std::uint32_t kMaxCohortHandovers = 64;

  CohortLock() : CohortLock(SpinConfig{}) {}
  explicit CohortLock(SpinConfig spin);

  // The socket id comes from the caller (thread pinning determines it);
  // the Lockable-conforming lock() uses a hash of the thread id.
  // Bodies acquire the per-socket TTAS and the global TICKET members on
  // behalf of the CohortLock capability; the analysis cannot equate the
  // levels, so the bodies opt out and the declarations carry the contract.
  void lock(int socket) LL_ACQUIRE() LL_NO_THREAD_SAFETY_ANALYSIS;
  void unlock(int socket) LL_RELEASE() LL_NO_THREAD_SAFETY_ANALYSIS;

  void lock() LL_ACQUIRE() LL_NO_THREAD_SAFETY_ANALYSIS;
  bool try_lock() LL_TRY_ACQUIRE(true) LL_NO_THREAD_SAFETY_ANALYSIS;
  void unlock() LL_RELEASE() LL_NO_THREAD_SAFETY_ANALYSIS;

 private:
  struct alignas(kCacheLineSize) Local {
    explicit Local(SpinConfig spin) : lock(spin) {}
    TtasLock lock;
    // Threads currently contending for the local lock; the cohort holder
    // releases the global lock when nobody local is waiting (otherwise a
    // handover budget with no taker would starve the other sockets).
    std::atomic<int> waiters{0};
    // Owned by the cohort holder: whether the global lock is already held
    // on behalf of this socket, and how many local handovers it has done.
    std::uint32_t handovers = 0;
    bool global_held = false;
  };

  static int SocketOfThisThread();

  std::vector<std::unique_ptr<Local>> locals_;
  TicketLock global_;
};

}  // namespace lockin

#endif  // SRC_LOCKS_BACKOFF_HPP_
