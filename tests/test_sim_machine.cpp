// Machine-model tests: CPU-time accounting, scheduling, oversubscription,
// blocking, and energy integration in simulated time.
#include <gtest/gtest.h>

#include "src/sim/machine.hpp"

namespace lockin {
namespace {

struct Fixture {
  SimEngine engine;
  SimMachine machine;

  explicit Fixture(Topology topo = Topology::PaperXeon())
      : machine(&engine, std::move(topo), PowerParams::PaperXeon(), SimParams::PaperXeon()) {}
};

TEST(SimMachine, RunForCompletesAfterExactCycles) {
  Fixture f;
  const int tid = f.machine.AddThread();
  f.machine.Start(tid);
  SimTime done_at = 0;
  f.machine.RunFor(tid, 1000, ActivityState::kWorking, [&] { done_at = f.engine.now(); });
  f.engine.RunAll();
  EXPECT_EQ(done_at, 1000u);
}

TEST(SimMachine, SequentialWorkAccumulates) {
  Fixture f;
  const int tid = f.machine.AddThread();
  f.machine.Start(tid);
  SimTime done_at = 0;
  f.machine.RunFor(tid, 100, ActivityState::kWorking, [&] {
    f.machine.RunFor(tid, 200, ActivityState::kCritical, [&] { done_at = f.engine.now(); });
  });
  f.engine.RunAll();
  EXPECT_EQ(done_at, 300u);
}

TEST(SimMachine, BlockReleasesContext) {
  Fixture f(Topology(1, 1, 1));  // one hardware context
  const int a = f.machine.AddThread();
  const int b = f.machine.AddThread();
  f.machine.Start(a);
  f.machine.Start(b);  // b waits: no context free
  EXPECT_TRUE(f.machine.IsRunning(a));
  EXPECT_TRUE(f.machine.IsReady(b));

  SimTime b_done = 0;
  f.machine.RunFor(b, 100, ActivityState::kWorking, [&] { b_done = f.engine.now(); });
  f.machine.RunFor(a, 500, ActivityState::kWorking, [&] { f.machine.Block(a); });
  f.engine.RunAll();
  // b could only run after a blocked at t=500.
  EXPECT_EQ(b_done, 600u);
  EXPECT_TRUE(f.machine.IsBlocked(a));
  EXPECT_TRUE(f.machine.IsRunning(b));
}

TEST(SimMachine, UnblockAfterDelayResumes) {
  Fixture f(Topology(1, 2, 1));
  const int tid = f.machine.AddThread();
  f.machine.Start(tid);
  SimTime resumed = 0;
  f.machine.RunFor(tid, 10, ActivityState::kWorking, [&] {
    f.machine.Block(tid);
    f.machine.Unblock(tid, 990);
    f.machine.NotifyWhenRunning(tid, [&] { resumed = f.engine.now(); });
  });
  f.engine.RunAll();
  EXPECT_EQ(resumed, 1000u);
}

TEST(SimMachine, CancelWorkSuppressesCallback) {
  Fixture f;
  const int tid = f.machine.AddThread();
  f.machine.Start(tid);
  bool fired = false;
  f.machine.RunFor(tid, 1000, ActivityState::kWorking, [&] { fired = true; });
  f.engine.Schedule(500, [&] { f.machine.CancelWork(tid); });
  f.engine.RunAll();
  EXPECT_FALSE(fired);
}

TEST(SimMachine, InfiniteWorkNeverCompletes) {
  Fixture f;
  const int tid = f.machine.AddThread();
  f.machine.Start(tid);
  bool fired = false;
  f.machine.RunFor(tid, SimMachine::kInfiniteWork, ActivityState::kSpinMbar,
                   [&] { fired = true; });
  f.engine.RunUntil(10'000'000);
  EXPECT_FALSE(fired);
}

TEST(SimMachine, OversubscriptionTimeSharesFairly) {
  // 2 threads on 1 context: each gets ~half the CPU time.
  Fixture f(Topology(1, 1, 1));
  const int a = f.machine.AddThread();
  const int b = f.machine.AddThread();
  f.machine.Start(a);
  f.machine.Start(b);
  const std::uint64_t quantum = SimParams::PaperXeon().scheduler_quantum_cycles;
  const std::uint64_t work = quantum * 4;
  SimTime a_done = 0;
  SimTime b_done = 0;
  f.machine.RunFor(a, work, ActivityState::kWorking, [&] { a_done = f.engine.now(); });
  f.machine.RunFor(b, work, ActivityState::kWorking, [&] { b_done = f.engine.now(); });
  // RunUntil, not RunAll: with runnable-but-workless threads the scheduler
  // keeps rotating them, so the event queue never drains by itself.
  f.engine.RunUntil(3 * work);
  ASSERT_GT(a_done, 0u);
  ASSERT_GT(b_done, 0u);
  // Both need 4 quanta of CPU; interleaved they finish within one quantum of
  // each other around t = 8 quanta.
  EXPECT_GT(a_done, work);
  EXPECT_GT(b_done, work);
  EXPECT_NEAR(static_cast<double>(a_done > b_done ? a_done - b_done : b_done - a_done), 0.0,
              static_cast<double>(quantum) * 1.5);
  EXPECT_NEAR(static_cast<double>(std::max(a_done, b_done)), static_cast<double>(2 * work),
              static_cast<double>(quantum) * 1.5);
}

TEST(SimMachine, NoPreemptionWhenUndersubscribed) {
  Fixture f(Topology(1, 2, 1));
  const int a = f.machine.AddThread();
  const int b = f.machine.AddThread();
  f.machine.Start(a);
  f.machine.Start(b);
  const std::uint64_t work = SimParams::PaperXeon().scheduler_quantum_cycles * 3;
  SimTime a_done = 0;
  f.machine.RunFor(a, work, ActivityState::kWorking, [&] { a_done = f.engine.now(); });
  f.machine.RunFor(b, work, ActivityState::kWorking, [] {});
  f.engine.RunAll();
  EXPECT_EQ(a_done, work);  // ran uninterrupted on its own context
}

TEST(SimMachine, NotifyWhenRunningFiresImmediatelyIfRunning) {
  Fixture f;
  const int tid = f.machine.AddThread();
  f.machine.Start(tid);
  bool fired = false;
  f.machine.NotifyWhenRunning(tid, [&] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(SimMachine, EnergyIdleMachineIsIdlePower) {
  Fixture f;
  f.engine.RunUntil(static_cast<SimTime>(SimParams::PaperXeon().cycles_per_second));  // 1 s
  const SimMachine::EnergyTotals energy = f.machine.Energy();
  EXPECT_NEAR(energy.seconds, 1.0, 1e-6);
  EXPECT_NEAR(energy.average_watts(), 55.5, 0.2);
}

TEST(SimMachine, EnergyTracksActivity) {
  Fixture f;
  const int tid = f.machine.AddThread();
  f.machine.Start(tid);
  const std::uint64_t second = static_cast<std::uint64_t>(SimParams::PaperXeon().cycles_per_second);
  f.machine.RunFor(tid, second, ActivityState::kWorking, [&] { f.machine.Block(tid); });
  f.engine.RunUntil(2 * second);
  const SimMachine::EnergyTotals energy = f.machine.Energy();
  // First second: idle + one working core (~+14.8 W); second second: idle +
  // sleeping bookkeeping. Average ~ idle + ~7.5 W.
  EXPECT_GT(energy.average_watts(), 59.0);
  EXPECT_LT(energy.average_watts(), 68.0);
}

TEST(SimMachine, ActiveContextsCountsRunners) {
  Fixture f;
  EXPECT_EQ(f.machine.ActiveContexts(), 0);
  const int a = f.machine.AddThread();
  const int b = f.machine.AddThread();
  f.machine.Start(a);
  f.machine.Start(b);
  EXPECT_EQ(f.machine.ActiveContexts(), 2);
}

// The incrementally-maintained power breakdown must track a full
// PowerModel recomputation through a busy mix of state changes (core
// wake-ups, SMT siblings, sleeps, DVFS-min spinning, socket transitions).
// The delta updates re-associate floating point, so the bound is a small
// epsilon rather than equality; drift beyond that means the incremental
// bookkeeping is wrong, not just reordered.
TEST(SimMachine, IncrementalPowerMatchesFullRecompute) {
  Fixture f;
  const int threads = 30;
  for (int t = 0; t < threads; ++t) {
    f.machine.AddThread();
  }
  for (int t = 0; t < threads; ++t) {
    f.machine.Start(t);
  }
  const ActivityState states[] = {
      ActivityState::kWorking,  ActivityState::kCritical, ActivityState::kSpinMbar,
      ActivityState::kKernel,   ActivityState::kSpinDvfsMin,
      ActivityState::kSpinPause, ActivityState::kMwait};
  std::uint64_t x = 88172645463325252ULL;  // xorshift: deterministic churn
  for (int step = 0; step < 2000; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const int tid = static_cast<int>(x % threads);
    const ActivityState state = states[(x >> 8) % (sizeof(states) / sizeof(states[0]))];
    f.machine.SetActivity(tid, state);
    if (step % 97 == 0) {
      f.machine.SetVf(step % 194 == 0 ? VfSetting::kMin : VfSetting::kMax);
    }
    EXPECT_LT(f.machine.PowerCacheDriftForTest(), 1e-9) << "at step " << step;
  }
}

TEST(SimMachine, ActiveShareTracksResidencyExactly) {
  Fixture f;
  const int tid = f.machine.AddThread();
  f.machine.Start(tid);
  f.machine.RunFor(tid, 1000, ActivityState::kWorking, [&] {
    f.machine.RunFor(tid, 3000, ActivityState::kKernel, nullptr);
  });
  f.engine.RunAll();
  // 1000 of 4000 active context-cycles working, 3000 in the kernel.
  EXPECT_DOUBLE_EQ(f.machine.ActiveShare(ActivityState::kWorking), 0.25);
  EXPECT_DOUBLE_EQ(f.machine.ActiveShare(ActivityState::kKernel), 0.75);
  EXPECT_DOUBLE_EQ(f.machine.ActiveShare(ActivityState::kSleeping), 0.0);
}

}  // namespace
}  // namespace lockin
