#include "src/adaptive/policy.hpp"

#include <algorithm>

namespace lockin {

const char* AdaptiveBackendName(AdaptiveBackend backend) {
  switch (backend) {
    case AdaptiveBackend::kSpin:
      return "TTAS";
    case AdaptiveBackend::kSleep:
      return "MUTEX";
    case AdaptiveBackend::kMutexee:
      return "MUTEXEE";
  }
  return "?";
}

AdaptiveBackend EwmaThresholdPolicy::Decide(const LockSiteSnapshot& snapshot,
                                            AdaptiveBackend current) {
  double wait = snapshot.avg_wait_cycles;
  // Unfair backends censor the wait signal: under barging (MUTEX) or
  // user-space handover (MUTEXEE) the acquisitions that complete are the
  // cheap ones -- the releaser re-acquiring in ~0 cycles -- while starving
  // sleepers never finish an acquire to be measured. Hold times are never
  // censored (every completed acquire records one), and under contention a
  // waiter expects to wait at least about one hold, so when the epoch shows
  // kernel churn or real contention, floor the wait estimate with the hold
  // EWMA.
  if (snapshot.sleep_ratio > 0.1 || snapshot.contended_ratio > 0.1) {
    wait = std::max(wait, snapshot.avg_hold_cycles);
  }
  // Hysteresis: moving away from the current backend requires crossing the
  // boundary by the factor; moving toward it only requires crossing it.
  double spin_max = kSpinWaitMaxCycles;
  double sleep_min = kSleepWaitMinCycles;
  switch (current) {
    case AdaptiveBackend::kSpin:
      spin_max *= kHysteresis;  // stickier: stay spinning a bit past the boundary
      break;
    case AdaptiveBackend::kSleep:
      sleep_min /= kHysteresis;  // stickier: keep sleeping a bit below the boundary
      break;
    case AdaptiveBackend::kMutexee:
      spin_max /= kHysteresis;  // harder to leave the middle ground in either direction
      sleep_min *= kHysteresis;
      break;
  }
  if (wait <= spin_max) {
    return AdaptiveBackend::kSpin;
  }
  // Heavy kernel involvement *despite* spinning first (i.e. on a backend
  // that spins before sleeping) means the spin phase only burns power --
  // go straight to sleeping. On kSleep itself the ratio is inherently ~1
  // (FutexLock sleeps on nearly every contended acquire), so the clause
  // must not apply there or the kSleep -> kMutexee transition in the
  // middle regime would be unreachable.
  if (wait >= sleep_min ||
      (current != AdaptiveBackend::kSleep && snapshot.sleep_ratio > 0.5)) {
    return AdaptiveBackend::kSleep;
  }
  return AdaptiveBackend::kMutexee;
}

MutexeeBudgets RetuneMutexeeBudgets(const LockSiteSnapshot& snapshot) {
  MutexeeBudgets budgets;
  // Spin long enough to cover the typical wait (2x the EWMA), so handovers
  // resolve in user space, but never past the bound where spinning costs
  // more than the futex round trip it avoids.
  const double target_spin = 2.0 * std::max(0.0, snapshot.avg_wait_cycles);
  budgets.spin_cycles = std::clamp(static_cast<std::uint64_t>(target_spin),
                                   kRetuneSpinMinCycles, kRetuneSpinMaxCycles);
  // Grace stretches with kernel involvement: the more acquisitions end in a
  // futex sleep, the more a skipped wake (>= 7000-cycle turnaround) is worth.
  const double stretch = 1.0 + 2.0 * std::clamp(snapshot.sleep_ratio, 0.0, 1.0);
  const double target_grace = static_cast<double>(kRetuneGraceMinCycles) * stretch;
  budgets.grace_cycles = std::clamp(static_cast<std::uint64_t>(target_grace),
                                    kRetuneGraceMinCycles, kRetuneGraceMaxCycles);
  return budgets;
}

}  // namespace lockin
