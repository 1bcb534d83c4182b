// Per-lock-site online profiler for the adaptive lock runtime.
//
// The paper's conclusion (section 7) is that no waiting policy wins
// everywhere: the right choice depends on how long waiters actually wait
// and how often they end up in the kernel. This profiler collects exactly
// those signals, cheaply and online, so the policy engine
// (src/adaptive/policy.hpp) can re-decide per epoch instead of per
// platform:
//
//   * EWMA of the acquire wait time and of the critical-section hold time;
//   * how many acquisitions were contended, and how many went through a
//     futex sleep (reported by the backends' FutexStats at epoch end).
//
// Threading contract: every Record* / EndEpoch call MUST be made by the
// thread currently holding the adaptive lock (single-writer). Snapshots
// returned by EndEpoch are plain values and may be shipped anywhere.
#ifndef SRC_ADAPTIVE_LOCK_STATS_HPP_
#define SRC_ADAPTIVE_LOCK_STATS_HPP_

#include <cstdint>

namespace lockin {

// One epoch's digest, consumed by the policy engine.
struct LockSiteSnapshot {
  std::uint64_t acquires = 0;          // acquisitions in this epoch
  double avg_wait_cycles = 0.0;        // EWMA across acquisitions
  double avg_hold_cycles = 0.0;        // EWMA across acquisitions
  double contended_ratio = 0.0;        // waited longer than a coherence hop
  double sleep_ratio = 0.0;            // futex sleeps / acquisitions (epoch)
};

class LockSiteStats {
 public:
  // Weight of the newest sampled acquisition in the wait/hold EWMAs.
  static constexpr double kEwmaAlpha = 0.2;
  // A sampled acquisition that waited longer than this counts as contended.
  static constexpr std::uint64_t kContendedThresholdCycles = 800;

  // Records one acquisition; called with the lock held. `wait_cycles` is the
  // time from requesting the lock to owning it, `hold_cycles` the critical
  // section length.
  void RecordAcquire(std::uint64_t wait_cycles, std::uint64_t hold_cycles);

  // Records an acquisition whose timings were not sampled (the adaptive
  // lock samples 1-in-2^k acquires to keep rdtsc off the fast path). Counts
  // toward epoch progress and the sleep ratio; leaves the EWMAs and the
  // contended ratio untouched.
  void RecordUnsampled();

  // Acquisitions recorded since the last EndEpoch.
  std::uint64_t epoch_acquires() const { return epoch_acquires_; }

  // Closes the epoch and returns its digest. `epoch_sleep_calls` is how many
  // futex sleeps the backends performed during the epoch (delta of their
  // FutexStats).
  LockSiteSnapshot EndEpoch(std::uint64_t epoch_sleep_calls);

  // Most recent digest (zero-valued before the first EndEpoch).
  const LockSiteSnapshot& last_snapshot() const { return last_; }

 private:
  // EWMAs persist across epochs; epoch counters reset each EndEpoch.
  double wait_ewma_ = 0.0;
  double hold_ewma_ = 0.0;
  bool ewma_seeded_ = false;

  std::uint64_t epoch_acquires_ = 0;
  std::uint64_t epoch_sampled_ = 0;
  std::uint64_t epoch_contended_ = 0;
  LockSiteSnapshot last_;
};

}  // namespace lockin

#endif  // SRC_ADAPTIVE_LOCK_STATS_HPP_
