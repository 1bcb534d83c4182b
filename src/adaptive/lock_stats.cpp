#include "src/adaptive/lock_stats.hpp"

#include <algorithm>

namespace lockin {

void LockSiteStats::RecordAcquire(std::uint64_t wait_cycles, std::uint64_t hold_cycles) {
  const double wait = static_cast<double>(wait_cycles);
  const double hold = static_cast<double>(hold_cycles);
  if (!ewma_seeded_) {
    wait_ewma_ = wait;
    hold_ewma_ = hold;
    ewma_seeded_ = true;
  } else {
    wait_ewma_ += kEwmaAlpha * (wait - wait_ewma_);
    hold_ewma_ += kEwmaAlpha * (hold - hold_ewma_);
  }
  ++epoch_acquires_;
  ++epoch_sampled_;
  if (wait_cycles > kContendedThresholdCycles) {
    ++epoch_contended_;
  }
}

void LockSiteStats::RecordUnsampled() { ++epoch_acquires_; }

LockSiteSnapshot LockSiteStats::EndEpoch(std::uint64_t epoch_sleep_calls) {
  LockSiteSnapshot snap;
  snap.acquires = epoch_acquires_;
  snap.avg_wait_cycles = wait_ewma_;
  snap.avg_hold_cycles = hold_ewma_;
  if (epoch_sampled_ > 0) {
    // Contention is judged over the *sampled* acquisitions (the only ones
    // with timings); sleeps are counted exactly by the backends.
    snap.contended_ratio =
        static_cast<double>(epoch_contended_) / static_cast<double>(epoch_sampled_);
  }
  if (epoch_acquires_ > 0) {
    snap.sleep_ratio = std::min(
        1.0, static_cast<double>(epoch_sleep_calls) / static_cast<double>(epoch_acquires_));
  }

  epoch_acquires_ = 0;
  epoch_sampled_ = 0;
  epoch_contended_ = 0;
  last_ = snap;
  return snap;
}

}  // namespace lockin
