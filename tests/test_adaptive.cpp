// Adaptive lock runtime tests: policy decisions under synthetic statistics,
// profiler epoch accounting, MUTEXEE budget retuning, epoch-switch safety
// under threads, the "ADAPTIVE" registry round-trip, and the simulated
// counterpart (MakeSimLock + phased workloads).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/adaptive/adaptive_lock.hpp"
#include "src/adaptive/lock_stats.hpp"
#include "src/adaptive/policy.hpp"
#include "src/locks/harness.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/sim/workload.hpp"
#include "src/systems/common.hpp"

namespace lockin {
namespace {

LockSiteSnapshot SnapshotWithWait(double wait_cycles, double sleep_ratio = 0.0) {
  LockSiteSnapshot snap;
  snap.epoch = 1;
  snap.acquires = 256;
  snap.avg_wait_cycles = wait_cycles;
  snap.avg_hold_cycles = 500;
  snap.sleep_ratio = sleep_ratio;
  snap.energy_per_acquire_joules =
      EstimateEnergyPerAcquire(wait_cycles, 500, sleep_ratio, AdaptiveEnergyParams{});
  return snap;
}

// --- Policy engine ----------------------------------------------------------

TEST(EwmaThresholdPolicyTest, ClassifiesTheThreeRegimes) {
  PolicyConfig config;
  EwmaThresholdPolicy policy(config);
  // Short waits: spinning wins (sleeping costs more than the wait itself).
  EXPECT_EQ(policy.Decide(SnapshotWithWait(500), AdaptiveBackend::kMutexee),
            AdaptiveBackend::kSpin);
  // Long waits: sleeping wins (spinning burns power for nothing).
  EXPECT_EQ(policy.Decide(SnapshotWithWait(200000), AdaptiveBackend::kMutexee),
            AdaptiveBackend::kSleep);
  // The middle ground: MUTEXEE's spin-then-sleep.
  EXPECT_EQ(policy.Decide(SnapshotWithWait(15000), AdaptiveBackend::kSpin),
            AdaptiveBackend::kMutexee);
}

TEST(EwmaThresholdPolicyTest, HeavyKernelInvolvementForcesSleep) {
  PolicyConfig config;
  EwmaThresholdPolicy policy(config);
  // Middle-ground waits but most acquisitions already reach the futex:
  // spinning first only adds power.
  EXPECT_EQ(policy.Decide(SnapshotWithWait(15000, /*sleep_ratio=*/0.8),
                          AdaptiveBackend::kMutexee),
            AdaptiveBackend::kSleep);
}

TEST(EwmaThresholdPolicyTest, SleepBackendCanStillReturnToMutexee) {
  PolicyConfig config;
  EwmaThresholdPolicy policy(config);
  // On kSleep the sleep ratio is inherently ~1 (FutexLock sleeps on nearly
  // every contended acquire); that must not pin the policy to kSleep once
  // waits fall back into the middle regime.
  EXPECT_EQ(policy.Decide(SnapshotWithWait(15000, /*sleep_ratio=*/0.95),
                          AdaptiveBackend::kSleep),
            AdaptiveBackend::kMutexee);
}

TEST(EwmaThresholdPolicyTest, HysteresisPreventsFlappingAtTheBoundary) {
  PolicyConfig config;
  config.spin_wait_max_cycles = 4000;
  config.hysteresis = 1.5;
  EwmaThresholdPolicy policy(config);
  // Just past the boundary: a spinning site stays spinning...
  EXPECT_EQ(policy.Decide(SnapshotWithWait(5000), AdaptiveBackend::kSpin),
            AdaptiveBackend::kSpin);
  // ...but a site already in the middle ground does not flip back to spin.
  EXPECT_EQ(policy.Decide(SnapshotWithWait(3500), AdaptiveBackend::kMutexee),
            AdaptiveBackend::kMutexee);
  // Far past the boundary, hysteresis yields.
  EXPECT_EQ(policy.Decide(SnapshotWithWait(8000), AdaptiveBackend::kSpin),
            AdaptiveBackend::kMutexee);
}

TEST(EpsilonGreedyPolicyTest, TriesEveryBackendThenConvergesToTheBest) {
  PolicyConfig config;
  config.kind = PolicyConfig::Kind::kEpsilonGreedy;
  config.epsilon = 0.1;
  config.epsilon_decay = 0.9;
  config.epsilon_min = 0.0;
  config.seed = 7;
  EpsilonGreedyPolicy policy(config);

  // Synthetic bandit: the spin backend yields 3x the TPP of the others.
  auto reward_for = [](AdaptiveBackend b) {
    LockSiteSnapshot snap;
    snap.acquires = 256;
    snap.energy_per_acquire_joules = b == AdaptiveBackend::kSpin ? 1e-6 : 3e-6;
    return snap;
  };

  AdaptiveBackend current = AdaptiveBackend::kMutexee;
  int spin_picks = 0;
  for (int round = 0; round < 200; ++round) {
    current = policy.Decide(reward_for(current), current);
    if (round >= 100 && current == AdaptiveBackend::kSpin) {
      ++spin_picks;
    }
  }
  // After the exploration phase the best arm dominates.
  EXPECT_GT(spin_picks, 80);
  EXPECT_GT(policy.value(AdaptiveBackend::kSpin),
            policy.value(AdaptiveBackend::kSleep));
}

TEST(MutexeeRetuneTest, BudgetsClampToTunerDerivedBounds) {
  MutexeeBudgetBounds bounds;
  bounds.spin_min_cycles = 4000;
  bounds.spin_max_cycles = 32000;
  bounds.grace_min_cycles = 128;
  bounds.grace_max_cycles = 1536;

  // Tiny waits: spin budget clamps to the lower bound.
  MutexeeBudgets low = RetuneMutexeeBudgets(SnapshotWithWait(100), bounds);
  EXPECT_EQ(low.spin_cycles, bounds.spin_min_cycles);
  // Huge waits: clamps to the upper bound.
  MutexeeBudgets high = RetuneMutexeeBudgets(SnapshotWithWait(1000000), bounds);
  EXPECT_EQ(high.spin_cycles, bounds.spin_max_cycles);
  // Middling waits: ~2x the EWMA.
  MutexeeBudgets mid = RetuneMutexeeBudgets(SnapshotWithWait(10000), bounds);
  EXPECT_EQ(mid.spin_cycles, 20000u);
  // Grace stretches with kernel involvement but stays bounded.
  MutexeeBudgets quiet = RetuneMutexeeBudgets(SnapshotWithWait(10000, 0.0), bounds);
  MutexeeBudgets busy = RetuneMutexeeBudgets(SnapshotWithWait(10000, 1.0), bounds);
  EXPECT_LT(quiet.grace_cycles, busy.grace_cycles);
  EXPECT_LE(busy.grace_cycles, bounds.grace_max_cycles);
}

TEST(MutexeeRetuneTest, BoundsDeriveFromTunerReport) {
  TunerReport report;
  report.futex_turnaround_cycles = 8000;
  report.line_transfer_cycles = 300;
  const MutexeeBudgetBounds bounds = MutexeeBudgetBounds::FromTunerReport(report);
  EXPECT_EQ(bounds.spin_min_cycles, 8000u);
  EXPECT_EQ(bounds.spin_max_cycles, 32000u);
  EXPECT_EQ(bounds.grace_min_cycles, 300u);
  EXPECT_EQ(bounds.grace_max_cycles, 1200u);
  EXPECT_LT(bounds.spin_min_cycles, bounds.spin_max_cycles);
  EXPECT_LT(bounds.grace_min_cycles, bounds.grace_max_cycles);
}

TEST(MutexeeRetuneTest, LiveLockAcceptsRetunedBudgets) {
  MutexeeLock lock;
  EXPECT_EQ(lock.spin_lock_budget(), MutexeeConfig{}.spin_mode_lock_cycles);
  lock.Retune(12345, 678);
  EXPECT_EQ(lock.spin_lock_budget(), 12345u);
  EXPECT_EQ(lock.spin_grace_budget(), 678u);
  lock.lock();
  lock.unlock();
}

// --- Profiler ---------------------------------------------------------------

TEST(LockSiteStatsTest, EpochDigestAggregatesAcquisitions) {
  AdaptiveEnergyParams energy;
  energy.cycles_per_second = 1e9;
  LockSiteStats stats(energy, /*ewma_alpha=*/1.0, /*contended_threshold_cycles=*/1000);

  stats.EndEpoch(0, 0);  // open the rate window
  stats.RecordAcquire(500, 2000);    // uncontended
  stats.RecordAcquire(5000, 2000);   // contended
  stats.RecordAcquire(5000, 2000);   // contended
  EXPECT_EQ(stats.epoch_acquires(), 3u);

  const LockSiteSnapshot snap = stats.EndEpoch(3000000, /*epoch_sleep_calls=*/1);
  EXPECT_EQ(snap.acquires, 3u);
  EXPECT_DOUBLE_EQ(snap.avg_wait_cycles, 5000.0);  // alpha=1: last sample
  EXPECT_NEAR(snap.contended_ratio, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(snap.sleep_ratio, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(snap.acquires_per_second, 3.0 / 0.003, 1.0);
  EXPECT_GT(snap.energy_per_acquire_joules, 0.0);
  EXPECT_GT(snap.EstimatedTpp(), 0.0);
  // The epoch counters reset; the EWMAs persist.
  EXPECT_EQ(stats.epoch_acquires(), 0u);
  EXPECT_EQ(stats.total_acquires(), 3u);
}

TEST(LockSiteStatsTest, EnergyEstimateOrdersTheRegimesLikeThePaper) {
  const AdaptiveEnergyParams params;
  // Spinning through a long wait costs more than sleeping through it
  // (Figure 3: busy-waiting power dwarfs the futex transition cost)...
  const double long_wait = 500000;
  EXPECT_GT(EstimateEnergyPerAcquire(long_wait, 1000, 0.0, params),
            EstimateEnergyPerAcquire(long_wait, 1000, 1.0, params));
  // ...while for a short wait the futex round trip dominates (Figure 6:
  // sleeping for waits cheaper than the sleep itself wastes energy).
  const double short_wait = 1000;
  EXPECT_LT(EstimateEnergyPerAcquire(short_wait, 1000, 0.0, params),
            EstimateEnergyPerAcquire(short_wait, 1000, 1.0, params));
}

// --- Adaptive lock ----------------------------------------------------------

TEST(AdaptiveLockTest, LockUnlockAndTryLockSemantics) {
  AdaptiveLock lock;
  for (int i = 0; i < 100; ++i) {
    lock.lock();
    lock.unlock();
  }
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
  lock.lock();
  std::thread other([&] { EXPECT_FALSE(lock.try_lock()); });
  other.join();
  lock.unlock();
}

TEST(AdaptiveLockTest, UncontendedSiteSettlesOnSpinning) {
  AdaptiveLockConfig config;
  config.epoch_acquires = 16;
  config.initial = AdaptiveBackend::kMutexee;
  config.spin.yield_after = 64;
  AdaptiveLock lock(config);
  for (int i = 0; i < 200; ++i) {
    lock.lock();
    lock.unlock();
  }
  // Uncontended acquires wait ~0 cycles; the EWMA policy must pick TTAS.
  EXPECT_EQ(lock.backend(), AdaptiveBackend::kSpin);
  EXPECT_GE(lock.backend_switches(), 1u);
  EXPECT_GT(lock.epochs(), 0u);
  EXPECT_GT(lock.last_snapshot().acquires, 0u);
}

// Deterministic policy that rotates backends every epoch: maximizes switch
// pressure for the safety test below.
class RotatingPolicy final : public AdaptivePolicy {
 public:
  AdaptiveBackend Decide(const LockSiteSnapshot&, AdaptiveBackend current) override {
    return static_cast<AdaptiveBackend>((static_cast<int>(current) + 1) %
                                        kAdaptiveBackendCount);
  }
  std::string name() const override { return "rotating"; }
};

TEST(AdaptiveLockTest, EpochSwitchingPreservesMutualExclusion) {
  AdaptiveLockConfig config;
  config.epoch_acquires = 32;  // switch every 32 acquisitions
  config.spin.yield_after = 64;
  AdaptiveLock lock(config, std::make_unique<RotatingPolicy>());

  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  long long counter = 0;  // plain: lost updates appear without exclusion
  std::atomic<int> inside{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        if (inside.fetch_add(1) != 0) {
          violated.store(true);
        }
        counter = counter + 1;
        inside.fetch_sub(1);
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIters);
  // The rotating policy switched through all three backends many times.
  EXPECT_GT(lock.backend_switches(), 50u);
}

TEST(AdaptiveLockTest, BanditPolicyAlsoPreservesExclusionUnderThreads) {
  AdaptiveLockConfig config;
  config.epoch_acquires = 64;
  config.policy.kind = PolicyConfig::Kind::kEpsilonGreedy;
  config.spin.yield_after = 64;
  AdaptiveLock lock(config);

  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  long long counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIters);
}

// --- Registry round-trip ----------------------------------------------------

TEST(AdaptiveRegistryTest, MakeLockBuildsAWorkingAdaptiveLock) {
  LockBuildOptions options;
  options.spin.yield_after = 64;
  auto lock = MakeLock("ADAPTIVE", options);
  ASSERT_NE(lock, nullptr);
  EXPECT_EQ(lock->name(), "ADAPTIVE");
  lock->lock();
  lock->unlock();
  EXPECT_TRUE(lock->try_lock());
  lock->unlock();
}

TEST(AdaptiveRegistryTest, RegisteredAlongsideEveryStaticLock) {
  const auto names = RegisteredLockNames();
  bool found = false;
  for (const auto& name : names) {
    if (name == "ADAPTIVE") {
      found = true;
    }
    EXPECT_NE(MakeLock(name), nullptr) << name;
  }
  EXPECT_TRUE(found);
}

TEST(AdaptiveRegistryTest, SystemsFactoryUsesTheThrowingContract) {
  // The mini-systems must never receive a null lock: a typo'd name raises
  // at construction instead of segfaulting on first use.
  EXPECT_THROW(NamedLockFactory("NOPE")(), std::invalid_argument);
  EXPECT_NE(NamedLockFactory("ADAPTIVE")(), nullptr);
}

TEST(AdaptiveRegistryTest, RegistryKnobsReachTheBackends) {
  LockBuildOptions options;
  options.mutex_spin_tries = 100;  // PTHREAD_MUTEX_ADAPTIVE_NP-style
  options.spin.yield_after = 77;
  auto lock = MakeLock("ADAPTIVE", options);
  ASSERT_NE(lock, nullptr);
  const AdaptiveLock& adaptive =
      static_cast<LockAdapter<AdaptiveLock>*>(lock.get())->impl();
  EXPECT_EQ(adaptive.config().sleep.spin_tries, 100u);
  EXPECT_EQ(adaptive.config().spin.yield_after, 77u);
  EXPECT_EQ(adaptive.config().mutexee.sleep_timeout_ns, 0u);
}

TEST(AdaptiveRegistryTest, NativeHarnessRunsAdaptive) {
  ScenarioConfig config;
  config.lock_name = "ADAPTIVE";
  config.threads = 2;
  config.duration_ms = 30;
  config.meter = MeterChoice::kOff;
  AcquireShape shape;
  shape.cs_cycles = 200;
  shape.non_cs_cycles = 100;
  shape.lock_options.spin.yield_after = 64;
  const ScenarioResult result = RunNativeBench(config, shape);
  EXPECT_GT(result.total_ops, 100u);
  EXPECT_EQ(result.lock_name, "ADAPTIVE");
}

// --- Simulated counterpart --------------------------------------------------

TEST(SimAdaptiveTest, RunsInTheWorkloadDriver) {
  WorkloadConfig config;
  config.threads = 8;
  config.cs_cycles = 2000;
  config.non_cs_cycles = 200;
  config.duration_cycles = 8000000;
  const WorkloadResult result = RunLockWorkload("ADAPTIVE", config);
  EXPECT_EQ(result.lock_name, "ADAPTIVE");
  EXPECT_GT(result.total_acquires, 100u);
  EXPECT_GT(result.tpp, 0.0);
  // The delegating lock's aggregated stats cover every acquisition. Inner
  // locks count at grant time while the driver counts at critical-section
  // completion, so up to one grant per thread may be in flight at cutoff.
  EXPECT_GE(result.lock_stats.acquires, result.total_acquires);
  EXPECT_LE(result.lock_stats.acquires - result.total_acquires,
            static_cast<std::uint64_t>(config.threads));
}

TEST(SimAdaptiveTest, DeterministicAcrossRuns) {
  WorkloadConfig config;
  config.threads = 6;
  config.cs_cycles = 4000;
  config.non_cs_cycles = 400;
  config.duration_cycles = 4000000;
  const WorkloadResult a = RunLockWorkload("ADAPTIVE", config);
  const WorkloadResult b = RunLockWorkload("ADAPTIVE", config);
  EXPECT_EQ(a.total_acquires, b.total_acquires);
  EXPECT_DOUBLE_EQ(a.tpp, b.tpp);
}

TEST(PhasedWorkloadTest, PhaseTotalsSumToTheRun) {
  WorkloadConfig base;
  base.threads = 6;
  std::vector<WorkloadPhase> phases(2);
  phases[0].duration_cycles = 3000000;
  phases[0].cs_cycles = 400;
  phases[0].non_cs_cycles = 800;
  phases[1].duration_cycles = 3000000;
  phases[1].cs_cycles = 12000;
  phases[1].non_cs_cycles = 100;

  for (const char* name : {"MUTEXEE", "ADAPTIVE"}) {
    const PhasedWorkloadResult result = RunPhasedLockWorkload(name, base, phases);
    ASSERT_EQ(result.phases.size(), 2u) << name;
    std::uint64_t acquires = 0;
    double joules = 0.0;
    for (const PhaseResult& phase : result.phases) {
      EXPECT_GT(phase.acquires, 0u) << name;
      EXPECT_GT(phase.joules, 0.0) << name;
      EXPECT_GT(phase.tpp, 0.0) << name;
      acquires += phase.acquires;
      joules += phase.joules;
    }
    EXPECT_EQ(acquires, result.total_acquires) << name;
    EXPECT_NEAR(joules, result.joules, 1e-6) << name;
    EXPECT_GT(result.tpp, 0.0) << name;
  }
}

}  // namespace
}  // namespace lockin
