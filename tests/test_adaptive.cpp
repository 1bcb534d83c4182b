// Adaptive lock runtime tests: policy decisions under synthetic statistics,
// profiler epoch accounting, MUTEXEE budget retuning, epoch-switch safety
// under threads and in the trace, the "ADAPTIVE" registry round-trip, and
// the simulated counterpart (MakeSimLock + phased workloads).
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
#include "src/obs/trace.hpp"
#include "src/sim/workload.hpp"
#include "src/systems/common.hpp"

namespace lockin {
namespace {

LockSiteSnapshot SnapshotWithWait(double wait_cycles, double sleep_ratio = 0.0) {
  LockSiteSnapshot snap;
  snap.acquires = 256;
  snap.avg_wait_cycles = wait_cycles;
  snap.avg_hold_cycles = 500;
  snap.sleep_ratio = sleep_ratio;
  return snap;
}

// --- Policy engine ----------------------------------------------------------

TEST(EwmaThresholdPolicyTest, ClassifiesTheThreeRegimes) {
  EwmaThresholdPolicy policy;
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
  EwmaThresholdPolicy policy;
  // Middle-ground waits but most acquisitions already reach the futex:
  // spinning first only adds power.
  EXPECT_EQ(policy.Decide(SnapshotWithWait(15000, /*sleep_ratio=*/0.8),
                          AdaptiveBackend::kMutexee),
            AdaptiveBackend::kSleep);
}

TEST(EwmaThresholdPolicyTest, SleepBackendCanStillReturnToMutexee) {
  EwmaThresholdPolicy policy;
  // On kSleep the sleep ratio is inherently ~1 (FutexLock sleeps on nearly
  // every contended acquire); that must not pin the policy to kSleep once
  // waits fall back into the middle regime.
  EXPECT_EQ(policy.Decide(SnapshotWithWait(15000, /*sleep_ratio=*/0.95),
                          AdaptiveBackend::kSleep),
            AdaptiveBackend::kMutexee);
}

TEST(EwmaThresholdPolicyTest, HysteresisPreventsFlappingAtTheBoundary) {
  // Spin boundary 4000 cycles, hysteresis 1.5.
  EwmaThresholdPolicy policy;
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

TEST(MutexeeRetuneTest, BudgetsClampToTheFixedBounds) {
  // Tiny waits: spin budget clamps to the lower bound.
  MutexeeBudgets low = RetuneMutexeeBudgets(SnapshotWithWait(100));
  EXPECT_EQ(low.spin_cycles, 4000u);
  // Huge waits: clamps to the upper bound.
  MutexeeBudgets high = RetuneMutexeeBudgets(SnapshotWithWait(1000000));
  EXPECT_EQ(high.spin_cycles, 32000u);
  // Middling waits: ~2x the EWMA.
  MutexeeBudgets mid = RetuneMutexeeBudgets(SnapshotWithWait(10000));
  EXPECT_EQ(mid.spin_cycles, 20000u);
  // Grace stretches with kernel involvement but stays bounded.
  MutexeeBudgets quiet = RetuneMutexeeBudgets(SnapshotWithWait(10000, 0.0));
  MutexeeBudgets busy = RetuneMutexeeBudgets(SnapshotWithWait(10000, 1.0));
  EXPECT_EQ(quiet.grace_cycles, 128u);
  EXPECT_LT(quiet.grace_cycles, busy.grace_cycles);
  EXPECT_LE(busy.grace_cycles, 1536u);
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
  // Production constants: EWMA alpha 0.2, contended above 800 cycles.
  LockSiteStats stats;
  stats.RecordAcquire(500, 2000);   // uncontended
  stats.RecordAcquire(5000, 2000);  // contended
  stats.RecordAcquire(5000, 2000);  // contended
  stats.RecordUnsampled();          // the native lock's 7-in-8 path
  EXPECT_EQ(stats.epoch_acquires(), 4u);

  const LockSiteSnapshot snap = stats.EndEpoch(/*epoch_sleep_calls=*/1);
  EXPECT_EQ(snap.acquires, 4u);
  EXPECT_DOUBLE_EQ(snap.avg_wait_cycles, 2120.0);  // 500 -> 1400 -> 2120
  EXPECT_DOUBLE_EQ(snap.avg_hold_cycles, 2000.0);
  // Contention is over the sampled acquires, sleeps over all of them.
  EXPECT_DOUBLE_EQ(snap.contended_ratio, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(snap.sleep_ratio, 1.0 / 4.0);
  EXPECT_EQ(stats.last_snapshot().acquires, 4u);

  // The epoch counters reset; the EWMAs carry into the next epoch.
  EXPECT_EQ(stats.epoch_acquires(), 0u);
  stats.RecordUnsampled();
  const LockSiteSnapshot next = stats.EndEpoch(/*epoch_sleep_calls=*/0);
  EXPECT_EQ(next.acquires, 1u);
  EXPECT_DOUBLE_EQ(next.avg_wait_cycles, 2120.0);
  EXPECT_DOUBLE_EQ(next.avg_hold_cycles, 2000.0);
  EXPECT_DOUBLE_EQ(next.contended_ratio, 0.0);
  EXPECT_DOUBLE_EQ(next.sleep_ratio, 0.0);
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
// pressure for the safety and trace tests below.
class RotatingPolicy final : public AdaptivePolicy {
 public:
  AdaptiveBackend Decide(const LockSiteSnapshot&, AdaptiveBackend current) override {
    return static_cast<AdaptiveBackend>((static_cast<int>(current) + 1) %
                                        kAdaptiveBackendCount);
  }
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

TEST(AdaptiveLockTest, EverySwitchReachesTheTimelineWithItsBackend) {
  AdaptiveLockConfig config;
  config.epoch_acquires = 16;
  AdaptiveLock lock(config, std::make_unique<RotatingPolicy>());
  TraceBuffer ring;
  {
    ScopedTraceSink sink(&ring);
    for (int i = 0; i < 160; ++i) {
      lock.lock();
      lock.unlock();
    }
  }
  std::vector<TraceEvent> events;
  ring.Drain(&events);
  std::vector<std::uint32_t> switched_to;
  for (const TraceEvent& event : events) {
    if (event.kind == static_cast<std::uint16_t>(TraceEventKind::kEpochSwitch)) {
      switched_to.push_back(event.arg);
    }
  }
  // One switch per 16-acquire epoch, rotating away from the initial MUTEXEE.
  EXPECT_EQ(lock.backend_switches(), 10u);
  EXPECT_EQ(switched_to.size(), lock.backend_switches());
  EXPECT_EQ(switched_to, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}));
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
  options.spin.yield_after = 77;
  auto lock = MakeLock("ADAPTIVE", options);
  ASSERT_NE(lock, nullptr);
  const AdaptiveLock& adaptive =
      static_cast<LockAdapter<AdaptiveLock>*>(lock.get())->impl();
  EXPECT_EQ(adaptive.config().spin.yield_after, 77u);
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
