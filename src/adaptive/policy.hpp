// Policy engine for the adaptive lock runtime.
//
// Picks, per lock site and per epoch, which waiting policy the next epoch
// should use -- the decision the paper shows cannot be made statically
// (sections 3-5: spinning wastes power under long waits, sleeping destroys
// throughput and tail latency under short ones, MUTEXEE's fixed budgets are
// tuned per platform).
//
// EwmaThresholdPolicy classifies the observed wait-time EWMA into the three
// regimes with hysteresis. Short waits -> pure spinning (TTAS); long waits
// or heavy kernel involvement -> sleeping (MUTEX/futex); the middle ground
// -> MUTEXEE's spin-then-sleep. This mirrors the active/passive wait-policy
// tradeoff studied for OpenMP runtimes (Valter et al., 2022) with the
// paper's cycle budgets as thresholds.
//
// The engine also retunes MUTEXEE's spin/grace budgets to the observed
// regime, inside fixed bounds around the paper's Xeon budgets.
#ifndef SRC_ADAPTIVE_POLICY_HPP_
#define SRC_ADAPTIVE_POLICY_HPP_

#include <cstdint>

#include "src/adaptive/lock_stats.hpp"

namespace lockin {

// The backends the adaptive lock switches among (src/adaptive/adaptive_lock.hpp).
enum class AdaptiveBackend : int {
  kSpin = 0,     // TTAS: local spinning, best when waits are short
  kSleep = 1,    // FutexLock (the paper's MUTEX): best when waits are long
  kMutexee = 2,  // spin-then-sleep with unlock grace: the middle ground
};
inline constexpr int kAdaptiveBackendCount = 3;

const char* AdaptiveBackendName(AdaptiveBackend backend);

class AdaptivePolicy {
 public:
  virtual ~AdaptivePolicy() = default;

  // Picks the backend for the next epoch given the closed epoch's digest.
  virtual AdaptiveBackend Decide(const LockSiteSnapshot& snapshot,
                                 AdaptiveBackend current) = 0;
};

class EwmaThresholdPolicy final : public AdaptivePolicy {
 public:
  // Regime boundaries on the wait-time EWMA, and the multiplicative
  // hysteresis a boundary must be crossed by to leave the current backend
  // (prevents flapping at a threshold).
  static constexpr double kSpinWaitMaxCycles = 4000.0;    // below: pure spinning wins
  static constexpr double kSleepWaitMinCycles = 40000.0;  // above: sleeping wins
  static constexpr double kHysteresis = 1.5;

  AdaptiveBackend Decide(const LockSiteSnapshot& snapshot, AdaptiveBackend current) override;
};

// Allowed range for MUTEXEE's retuned spin-mode budgets: fixed constants
// bracketing the paper's Xeon values (8000-cycle spin, 384-cycle grace).
inline constexpr std::uint64_t kRetuneSpinMinCycles = 4000;
inline constexpr std::uint64_t kRetuneSpinMaxCycles = 32000;
inline constexpr std::uint64_t kRetuneGraceMinCycles = 128;
inline constexpr std::uint64_t kRetuneGraceMaxCycles = 1536;

// Retuned MUTEXEE spin-mode budgets for the observed regime, clamped to the
// bounds above: spin a bit past the typical wait (so handovers stay in user
// space), stretch the unlock grace when many waiters reach the futex (each
// skipped wake saves a >= 7000-cycle turnaround).
struct MutexeeBudgets {
  std::uint64_t spin_cycles;
  std::uint64_t grace_cycles;
};
MutexeeBudgets RetuneMutexeeBudgets(const LockSiteSnapshot& snapshot);

}  // namespace lockin

#endif  // SRC_ADAPTIVE_POLICY_HPP_
