// LockLint runtime detector (src/analysis/lockdep): seeded violations are
// caught and reported exactly once, and a clean sweep of every registered
// scenario stays cycle-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/lockdep.hpp"
#include "src/locks/lock_api.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {
namespace {

std::unique_ptr<LockHandle> MakeTraced(const std::string& name) {
  std::unique_ptr<LockHandle> handle = MakeLockOrThrow(name);
  handle->EnableTrace();
  return handle;
}

bool ChainContains(const LockdepReport& report, std::uint32_t site) {
  return std::find(report.chain, report.chain + report.chain_len, site) !=
         report.chain + report.chain_len;
}

TEST(LockdepTest, SeededAbbaReportedOnceWithBothSites) {
  LockdepReset();
  ScopedLockdep enable;
  std::unique_ptr<LockHandle> a = MakeTraced("TICKET");
  std::unique_ptr<LockHandle> b = MakeTraced("TICKET");

  // The classic inversion, sequentially (each thread joins before the next
  // starts), so the cycle is observed in the acquisition graph without an
  // actual deadlock.
  auto order_ab = [&] {
    a->lock();
    b->lock();
    b->unlock();
    a->unlock();
  };
  auto order_ba = [&] {
    b->lock();
    a->lock();
    a->unlock();
    b->unlock();
  };
  std::thread(order_ab).join();
  std::thread(order_ba).join();
  // Repeat both orders: the edges already exist, so the same cycle must not
  // be reported a second time.
  std::thread(order_ab).join();
  std::thread(order_ba).join();

  const std::vector<LockdepReport> reports = LockdepReports();
  ASSERT_EQ(reports.size(), 1u);
  const LockdepReport& report = reports[0];
  EXPECT_EQ(report.kind, LockdepViolationKind::kCycle);
  // Closed chain through both acquisition sites (A -> B -> A).
  ASSERT_EQ(report.chain_len, 3u);
  EXPECT_EQ(report.chain[0], report.chain[report.chain_len - 1]);
  EXPECT_TRUE(ChainContains(report, a->trace_site()));
  EXPECT_TRUE(ChainContains(report, b->trace_site()));
  // EnableTrace registered the algorithm name for the site label.
  EXPECT_NE(report.Describe().find("TICKET"), std::string::npos) << report.Describe();

  const LockdepStats stats = LockdepGetStats();
  EXPECT_EQ(stats.cycles, 1u);
  EXPECT_EQ(stats.self_deadlocks, 0u);
  EXPECT_EQ(stats.unlock_unheld, 0u);
}

TEST(LockdepTest, ThreeLockCycleCaught) {
  LockdepReset();
  ScopedLockdep enable;
  std::unique_ptr<LockHandle> a = MakeTraced("TTAS");
  std::unique_ptr<LockHandle> b = MakeTraced("TTAS");
  std::unique_ptr<LockHandle> c = MakeTraced("TTAS");

  auto nest = [](LockHandle& outer, LockHandle& inner) {
    outer.lock();
    inner.lock();
    inner.unlock();
    outer.unlock();
  };
  std::thread([&] { nest(*a, *b); }).join();
  std::thread([&] { nest(*b, *c); }).join();
  std::thread([&] { nest(*c, *a); }).join();  // closes a -> b -> c -> a

  const std::vector<LockdepReport> reports = LockdepReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, LockdepViolationKind::kCycle);
  EXPECT_EQ(reports[0].chain_len, 4u);
  EXPECT_TRUE(ChainContains(reports[0], a->trace_site()));
  EXPECT_TRUE(ChainContains(reports[0], b->trace_site()));
  EXPECT_TRUE(ChainContains(reports[0], c->trace_site()));
}

TEST(LockdepTest, RecursiveSelfAcquireCaught) {
  LockdepReset();
  ScopedLockdep enable;
  std::unique_ptr<LockHandle> a = MakeTraced("TICKET");

  a->lock();
  // Re-entry on the holding thread: the acquire-begin a second a->lock()
  // emits before it would spin forever (TicketLock is not recursive). The
  // attempt itself is the violation.
  TraceEmit(TraceEventKind::kAcquireBegin, a->trace_site());
  a->unlock();

  const std::vector<LockdepReport> reports = LockdepReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, LockdepViolationKind::kSelfDeadlock);
  EXPECT_EQ(reports[0].chain_len, 1u);
  EXPECT_EQ(reports[0].chain[0], a->trace_site());
  EXPECT_EQ(LockdepGetStats().self_deadlocks, 1u);
}

TEST(LockdepTest, UnlockOfUnheldCaught) {
  LockdepReset();
  ScopedLockdep enable;
  // TAS unlock is a plain store, so releasing an unheld lock is harmless at
  // the machine level -- exactly the bug class the detector must flag.
  std::unique_ptr<LockHandle> a = MakeTraced("TAS");

  a->unlock();

  const std::vector<LockdepReport> reports = LockdepReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, LockdepViolationKind::kUnlockUnheld);
  EXPECT_EQ(reports[0].chain_len, 1u);
  EXPECT_EQ(reports[0].chain[0], a->trace_site());
  EXPECT_EQ(LockdepGetStats().unlock_unheld, 1u);
}

TEST(LockdepTest, ResetClearsReportsAndStats) {
  LockdepReset();
  ScopedLockdep enable;
  std::unique_ptr<LockHandle> a = MakeTraced("TAS");
  a->unlock();  // seed one violation
  ASSERT_EQ(LockdepReports().size(), 1u);

  LockdepReset();
  EXPECT_TRUE(LockdepReports().empty());
  const LockdepStats stats = LockdepGetStats();
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(stats.edges, 0u);
  EXPECT_EQ(stats.unlock_unheld, 0u);
}

TEST(LockdepTest, DisabledHookRecordsNothing) {
  LockdepReset();
  ScopedLockdep disable(false);
  std::unique_ptr<LockHandle> a = MakeTraced("TAS");
  a->unlock();
  EXPECT_TRUE(LockdepReports().empty());
  EXPECT_EQ(LockdepGetStats().events, 0u);
}

// The acceptance sweep: every registered scenario under MUTEX with lockdep
// armed must finish with zero lock-order cycles. Other report kinds are not
// asserted on (a scenario handing a lock between threads would show as
// unlock-of-unheld, which is a different property).
TEST(LockdepTest, CleanScenarioSweepHasNoCycles) {
  LockdepReset();
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 2;
  config.ops_per_thread = 300;
  config.record_latency = false;
  config.meter = MeterChoice::kOff;
  config.lockdep = true;

  for (const ScenarioInfo& info : RegisteredScenarios()) {
    const ScenarioResult result = RunScenarioByName(info.name, config);
    EXPECT_GT(result.total_ops, 0u) << info.name;
  }

  const LockdepStats stats = LockdepGetStats();
  EXPECT_GT(stats.events, 0u);
  EXPECT_EQ(stats.cycles, 0u);
  for (const LockdepReport& report : LockdepReports()) {
    EXPECT_NE(report.kind, LockdepViolationKind::kCycle) << report.Describe();
  }
}

}  // namespace
}  // namespace lockin
