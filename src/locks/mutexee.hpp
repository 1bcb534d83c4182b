// MUTEXEE: the paper's optimized futex mutex (section 5.1, Table 1).
//
// Differences from MUTEX, as specified by the paper:
//
//   lock    | MUTEX: spin ~1000 cycles with `pause`, then futex sleep.
//           | MUTEXEE: spin up to ~8000 cycles with `mfence` pausing, then
//           | futex sleep. (Their sensitivity analysis: "spinning for more
//           | than 4000 cycles is crucial for throughput".)
//
//   unlock  | MUTEX: release in user space, wake one sleeper.
//           | MUTEXEE: release in user space, then *wait in user space* for
//           | ~the maximum coherence latency (384 cycles on their Xeon). If
//           | another thread grabs the lock during that grace window, the
//           | futex wake is skipped entirely -- the handover happened with
//           | busy waiting and the sleepers keep sleeping (this is the
//           | fairness-for-energy trade of section 4.4).
//
//   modes   | MUTEXEE tracks how many handovers happen via futex vs via
//           | spinning and periodically switches between
//           |   spin mode  (~8000-cycle lock spin, ~384-cycle unlock grace)
//           |   mutex mode (~256-cycle lock spin, ~128-cycle unlock grace)
//           | choosing mutex mode when the futex-handover ratio is >30%
//           | (useless spinning would only burn power).
//
//   timeout | Optionally, futex sleeps carry a timeout; a thread woken by
//           | timeout spins until it acquires, without sleeping again,
//           | bounding the tail latency (Figure 10).
#ifndef SRC_LOCKS_MUTEXEE_HPP_
#define SRC_LOCKS_MUTEXEE_HPP_

#include <atomic>
#include <cstdint>

#include "src/futex/futex.hpp"
#include "src/platform/cacheline.hpp"
#include "src/platform/thread_annotations.hpp"

namespace lockin {

struct MutexeeConfig {
  // Spin-mode budgets (cycles). Defaults are the paper's Xeon values; the
  // tuner (src/locks/tuner.hpp) re-derives them per platform.
  std::uint64_t spin_mode_lock_cycles = 8000;
  std::uint64_t spin_mode_grace_cycles = 384;

  // Mutex-mode budgets (cycles): "~256 cycles in lock and ~128 in unlock
  // (used to avoid useless spinning)".
  std::uint64_t mutex_mode_lock_cycles = 256;
  std::uint64_t mutex_mode_grace_cycles = 128;

  // Futex sleep timeout in nanoseconds; 0 disables (the paper's default).
  // "For timeouts shorter than 16-32 ms, both throughput and TPP suffer."
  std::uint64_t sleep_timeout_ns = 0;

  // Mode adaptation: every MutexeeLock::kAdaptPeriod acquisitions, use
  // mutex mode when futex handovers exceed `futex_ratio_threshold`.
  double futex_ratio_threshold = 0.30;

  // Ablation switch: disabling the unlock grace window makes MUTEXEE behave
  // like MUTEX power-wise (the paper's sensitivity analysis); ablation_mutexee
  // and unit tests turn it off.
  bool enable_unlock_grace = true;
};

class LL_CAPABILITY("mutex") MutexeeLock {
 public:
  enum class Mode { kSpin, kMutex };

  // Acquisitions between two mode re-evaluations (the simulator's MUTEXEE
  // reads it too). Spin phases pause with mfence (section 4.2).
  static constexpr std::uint32_t kAdaptPeriod = 512;

  // The sleep timeout of the registry's "MUTEXEE-TO": the 4 ms of the
  // paper's "MUTEXEE timeout" row (section 5.1, bench/tab_mutexee_timeout).
  static constexpr std::uint64_t kToSleepTimeoutNs = 4'000'000;

  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t spin_handovers = 0;   // acquired while busy-waiting
    std::uint64_t futex_handovers = 0;  // acquired after a futex sleep
    std::uint64_t timeout_handovers = 0;  // acquired after a timeout wake
    std::uint64_t wake_skips = 0;  // unlock grace detected a user-space grab
    std::uint64_t mode_switches = 0;

    double FutexHandoverRatio() const {
      return acquires == 0 ? 0.0
                           : static_cast<double>(futex_handovers + timeout_handovers) /
                                 static_cast<double>(acquires);
    }
  };

  MutexeeLock() = default;
  explicit MutexeeLock(MutexeeConfig config)
      : config_(config),
        spin_lock_budget_(config.spin_mode_lock_cycles),
        spin_grace_budget_(config.spin_mode_grace_cycles) {}

  // Fast paths are inline, as FutexLock's are: lock() is one CAS plus the
  // holder's window count, unlock() is one exchange plus the sleepers_
  // load. The spin, sleep, grace/wake and adaptation paths stay out of
  // line in mutexee.cpp.
  void lock() LL_ACQUIRE() {
    std::uint32_t expected = 0;
    if (state_.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      CountAcquire();
      return;
    }
    LockSlow();
  }

  void unlock() LL_RELEASE() {
    // seq_cst pair: see the sleep phase in LockSlow().
    const std::uint32_t prior = state_.exchange(0, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
      UnlockSlow(prior);
    }
  }

  // Retunes the spin-mode budgets online (the adaptive runtime derives new
  // budgets per contention regime; see src/adaptive/policy.hpp). Safe to
  // call concurrently with lock/unlock: budgets are atomics read once per
  // slow-path acquire or release. Mutex-mode budgets stay at their
  // configured values.
  void Retune(std::uint64_t spin_lock_cycles, std::uint64_t spin_grace_cycles) {
    spin_lock_budget_.store(spin_lock_cycles, std::memory_order_relaxed);
    spin_grace_budget_.store(spin_grace_cycles, std::memory_order_relaxed);
  }
  std::uint64_t spin_lock_budget() const {
    return spin_lock_budget_.load(std::memory_order_relaxed);
  }
  std::uint64_t spin_grace_budget() const {
    return spin_grace_budget_.load(std::memory_order_relaxed);
  }

  Mode mode() const { return mode_.load(std::memory_order_relaxed); }
  // Safe while other threads hold the lock: a read taken mid-update may be
  // off by up to kAdaptPeriod acquires, but spin_handovers never exceeds
  // acquires.
  Stats GetStats() const;
  const FutexStats& futex_stats() const { return futex_stats_; }

  const MutexeeConfig& config() const { return config_; }

 private:
  // Spin phase, then sleep phase (the inline CAS failed).
  void LockSlow();
  // Grace window, then a futex wake unless a spinner took the lock.
  void UnlockSlow(std::uint32_t prior);

  // Spins up to `budget` cycles trying to move state 0 -> locked. Returns
  // true on acquisition.
  bool SpinAcquire(std::uint64_t budget);

  // Holder only: counts one acquire in the open window. The acquire that
  // fills the window closes it in Adapt() instead.
  void CountAcquire() {
    const std::uint64_t open = window_acquires_.load(std::memory_order_relaxed) + 1;
    if (open == kAdaptPeriod) {
      Adapt();
      return;
    }
    window_acquires_.store(open, std::memory_order_relaxed);
  }

  // Holder only: closes a full window and picks the mode for the next one.
  void Adapt();

  MutexeeConfig config_{};

  // Live spin-mode budgets; initialized from config_, updated by Retune().
  std::atomic<std::uint64_t> spin_lock_budget_{MutexeeConfig{}.spin_mode_lock_cycles};
  std::atomic<std::uint64_t> spin_grace_budget_{MutexeeConfig{}.spin_mode_grace_cycles};

  // 0 = free, 1 = locked, no advertised sleepers, 2 = locked, sleepers.
  alignas(kCacheLineSize) std::atomic<std::uint32_t> state_{0};
  // Read by every unlocker and by slow-path lockers.
  alignas(kCacheLineSize) std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<Mode> mode_{Mode::kSpin};

  // Statistics, holder-owned: only the thread that holds the lock writes
  // them, with a relaxed load and store and never an RMW, and the lock's
  // own acquire/release orders each holder's writes before the next
  // holder's. They sit on a line that no unlocker or sleeper writes, so
  // counting pulls no second contended line into the critical section.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> window_acquires_{0};  // open window
  std::atomic<std::uint64_t> closed_acquires_{0};  // acquires in closed windows
  std::atomic<std::uint64_t> closed_futex_handovers_{0};  // futex handovers in them
  std::atomic<std::uint64_t> futex_handovers_{0};    // acquired after a futex sleep
  std::atomic<std::uint64_t> timeout_handovers_{0};  // acquired after a timeout wake
  std::atomic<std::uint64_t> mode_switches_{0};

  // Written outside the lock: by unlockers (skips, wakes) and sleepers.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> wake_skips_{0};
  FutexStats futex_stats_;
};

}  // namespace lockin

#endif  // SRC_LOCKS_MUTEXEE_HPP_
