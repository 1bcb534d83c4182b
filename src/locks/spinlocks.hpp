// Simple spinlocks: TAS, TTAS and TICKET.
//
// Section 2 of the paper: "TAS spins with an atomic operation, continuously
// trying to acquire the lock (global spinning). In contrast, all other
// spinlocks spin with a load until the lock becomes free and only then try
// to acquire the lock with an atomic operation (local spinning)."
//
// Every spinlock pauses with mfence, the paper's choice (section 4.2,
// Figure 4), and takes a SpinConfig for one escape hatch: yielding after N
// spins on oversubscribed hosts (default: never). Each reports leaving its
// fast path to a traced acquire (TraceContended, src/obs/trace.hpp).
#ifndef SRC_LOCKS_SPINLOCKS_HPP_
#define SRC_LOCKS_SPINLOCKS_HPP_

#include <atomic>
#include <cstdint>

#include "src/obs/trace.hpp"
#include "src/platform/cacheline.hpp"
#include "src/platform/spin_hint.hpp"
#include "src/platform/thread_annotations.hpp"

namespace lockin {

struct SpinConfig {
  // After this many spin iterations the waiter yields the CPU (0 = never).
  // Pure spinning livelocks on oversubscribed hosts (section 6's MySQL and
  // SQLite results); tests on small machines set a small threshold.
  std::uint32_t yield_after = 0;
};

// One spin-wait step: an mfence pause, or a yield once `iteration` reaches
// the configured threshold.
inline void SpinWaitStep(const SpinConfig& config, std::uint32_t iteration) {
  if (config.yield_after != 0 && iteration >= config.yield_after) {
    SpinPause(PauseKind::kYield);
  } else {
    SpinPause(PauseKind::kMfence);
  }
}

// The spinlock family is defined inline: these bodies ARE the measured
// payload of the uncontested benchmarks, and the devirtualized dispatch
// tier (src/locks/static_dispatch.hpp) relies on lock()/unlock() folding
// into the templated measurement loop with no call at all. Keeping them in
// a .cpp would re-impose one out-of-line call per operation -- the same
// overhead class devirtualization removes.

// Test-and-set lock: global spinning with an atomic exchange.
class LL_CAPABILITY("mutex") TasLock {
 public:
  TasLock() = default;
  explicit TasLock(SpinConfig config) : config_(config) {}

  void lock() LL_ACQUIRE() {
    // Global spinning: the exchange keeps the line in modified state and is
    // the highest-power waiting mode measured in Figure 3.
    std::uint32_t iteration = 0;
    while (locked_.exchange(1, std::memory_order_acquire) != 0) {
      TraceContended();
      SpinWaitStep(config_, iteration++);
    }
  }

  void unlock() LL_RELEASE() { locked_.store(0, std::memory_order_release); }

 private:
  SpinConfig config_{};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> locked_{0};
};

// Test-and-test-and-set: local spinning on a cached read, atomic only when
// the lock looks free.
class LL_CAPABILITY("mutex") TtasLock {
 public:
  TtasLock() = default;
  explicit TtasLock(SpinConfig config) : config_(config) {}

  void lock() LL_ACQUIRE() {
    std::uint32_t iteration = 0;
    for (;;) {
      if (locked_.load(std::memory_order_relaxed) == 0 &&
          locked_.exchange(1, std::memory_order_acquire) == 0) {
        return;
      }
      TraceContended();
      // Local spinning: wait on the cached copy until the line is
      // invalidated by the release store.
      while (locked_.load(std::memory_order_relaxed) != 0) {
        SpinWaitStep(config_, iteration++);
      }
    }
  }

  void unlock() LL_RELEASE() { locked_.store(0, std::memory_order_release); }

 private:
  SpinConfig config_{};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> locked_{0};
};

// Ticket lock (Mellor-Crummey & Scott): FIFO-fair, local spinning on the
// now-serving counter. Fairness is exactly what collapses under
// oversubscription in the paper's Figure 11 and the MySQL/SQLite rows of
// Figures 13-14.
class LL_CAPABILITY("mutex") TicketLock {
 public:
  TicketLock() = default;
  explicit TicketLock(SpinConfig config) : config_(config) {}

  void lock() LL_ACQUIRE() {
    const std::uint32_t my_ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
    std::uint32_t iteration = 0;
    while (now_serving_.load(std::memory_order_acquire) != my_ticket) {
      TraceContended();
      SpinWaitStep(config_, iteration++);
    }
    depart_ = my_ticket + 1;
  }

  void unlock() LL_RELEASE() {
    // Single-writer handover: only the holder advances now_serving_, so the
    // release is one plain store of the value staged at acquire time --
    // no second locked RMW (the classic ticket-release optimization) and no
    // load of the contended now_serving_ line on the release path.
    now_serving_.store(depart_, std::memory_order_release);
  }

 private:
  SpinConfig config_{};
  // Holder-owned: written under the lock (end of lock()), read by the same
  // holder in unlock(); the handover's release/acquire pair orders
  // successive holders' accesses. Shares the uncontended config line on
  // purpose -- waiters never touch it.
  std::uint32_t depart_ = 1;
  alignas(kCacheLineSize) std::atomic<std::uint32_t> next_ticket_{0};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> now_serving_{0};
};

}  // namespace lockin

#endif  // SRC_LOCKS_SPINLOCKS_HPP_
