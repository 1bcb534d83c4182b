// Scenario-layer tests (src/systems/workload_api.hpp): the registry lists
// and constructs every scenario, every scenario runs under every registered
// lock through the one shared driver, seeded single-threaded runs are
// deterministic, and the per-system counter invariants hold -- the
// properties the paper's "swap the lock, not the system" experiment and the
// benchmark's kv-contended and cache-read workloads rely on.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/locks/lock_registry.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {
namespace {

// Small key spaces keep Setup preloads cheap in the all-scenarios sweeps.
ScenarioConfig TinyConfig(const std::string& lock, int threads, int ops) {
  ScenarioConfig config;
  config.lock_name = lock;
  config.threads = threads;
  config.ops_per_thread = ops;
  config.key_space = 512;
  return config;
}

// --- Registry ----------------------------------------------------------------

TEST(ScenarioRegistry, ListsEverySystem) {
  const std::vector<ScenarioInfo> scenarios = RegisteredScenarios();
  EXPECT_GE(scenarios.size(), 15u);
  std::set<std::string> systems;
  std::set<std::string> names;
  for (const ScenarioInfo& info : scenarios) {
    systems.insert(info.system);
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate name " << info.name;
    EXPECT_FALSE(info.description.empty()) << info.name;
    // Names follow "<system>/<mix>" so CLIs can group them.
    EXPECT_NE(info.name.find('/'), std::string::npos) << info.name;
  }
  const std::set<std::string> expected = {"KvStore", "MemCache", "NosqlDb", "GraphStore",
                                          "MiniSql", "WalStore", "CowList"};
  EXPECT_EQ(systems, expected);
}

TEST(ScenarioRegistry, ConstructsEveryListedScenario) {
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    EXPECT_NE(MakeScenario(info.name), nullptr) << info.name;
    EXPECT_NE(ScenarioRegistry::Instance().Find(info.name), nullptr) << info.name;
  }
}

TEST(ScenarioRegistry, UnknownNameContract) {
  // Mirrors the lock registry: Make -> nullptr, MakeOrThrow -> throws.
  EXPECT_EQ(MakeScenario("no/such-scenario"), nullptr);
  EXPECT_EQ(ScenarioRegistry::Instance().Find("no/such-scenario"), nullptr);
  EXPECT_THROW(MakeScenarioOrThrow("no/such-scenario"), std::invalid_argument);
  EXPECT_THROW(RunScenarioByName("no/such-scenario", ScenarioConfig{}), std::invalid_argument);
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  ScenarioRegistry local;
  local.Register({"x/one", "X", "d"}, [] { return MakeScenarioOrThrow("kvstore/WT"); });
  EXPECT_THROW(local.Register({"x/one", "X", "d"}, nullptr), std::invalid_argument);
}

TEST(ScenarioRegistry, UnknownLockThrowsAtSetup) {
  EXPECT_THROW(RunScenarioByName("kvstore/WT", TinyConfig("NOT-A-LOCK", 1, 10)),
               std::invalid_argument);
}

// --- Driver ------------------------------------------------------------------

class CountingWorkload : public ScenarioWorkload {
 public:
  explicit CountingWorkload(std::size_t counters = 1) : counters_(counters) {}
  void Setup(const ScenarioConfig&) override {}
  std::vector<std::string> CounterNames() const override {
    return std::vector<std::string>(counters_, "c");
  }
  void Op(ThreadContext& ctx) override { ++ctx.counters[0]; }

 private:
  std::size_t counters_;
};

TEST(ScenarioDriver, FixedOpModeRunsExactly) {
  CountingWorkload workload;
  ScenarioConfig config;
  config.threads = 3;
  config.ops_per_thread = 1000;
  const ScenarioResult result = RunScenario(workload, config, "test/counting");
  EXPECT_EQ(result.total_ops, 3000u);
  EXPECT_EQ(result.scenario, "test/counting");
  // With latency recording on, every op lands in the histogram.
  EXPECT_EQ(result.op_latency_cycles.count(), 3000u);
  ASSERT_FALSE(result.metrics.empty());
  EXPECT_EQ(result.metrics[0].name, "c");
  EXPECT_EQ(result.metrics[0].value, 3000.0);
  EXPECT_GT(result.ops_per_s, 0.0);
  EXPECT_EQ(result.MetricOr("missing", -1.0), -1.0);
}

TEST(ScenarioDriver, DurationModeStops) {
  CountingWorkload workload;
  ScenarioConfig config;
  config.threads = 2;
  config.duration_ms = 20;
  config.record_latency = false;
  const ScenarioResult result = RunScenario(workload, config, "test/duration");
  EXPECT_GT(result.total_ops, 0u);
  EXPECT_GE(result.seconds, 0.015);
  EXPECT_EQ(result.op_latency_cycles.count(), 0u);
}

TEST(ScenarioDriver, RejectsTooManyCounters) {
  CountingWorkload workload(ScenarioWorkload::kMaxCounters + 1);
  EXPECT_THROW(RunScenario(workload, ScenarioConfig{}, "test/overflow"),
               std::invalid_argument);
}

// --- Every scenario x every registered lock ----------------------------------

TEST(ScenarioSweep, EveryScenarioUnderEveryLock) {
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    for (const std::string& lock : RegisteredLockNames()) {
      const ScenarioConfig config = TinyConfig(lock, 2, 300);
      const ScenarioResult result = RunScenarioByName(info.name, config);
      EXPECT_EQ(result.total_ops, 600u) << info.name << " under " << lock;
      EXPECT_EQ(result.lock_name, lock);
    }
  }
}

// --- Determinism -------------------------------------------------------------

TEST(ScenarioDeterminism, SeededSingleThreadRunsMatch) {
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    ScenarioConfig config = TinyConfig("MUTEX", 1, 2000);
    config.seed = 7;
    const ScenarioResult a = RunScenarioByName(info.name, config);
    const ScenarioResult b = RunScenarioByName(info.name, config);
    ASSERT_EQ(a.metrics.size(), b.metrics.size()) << info.name;
    for (std::size_t m = 0; m < a.metrics.size(); ++m) {
      EXPECT_EQ(a.metrics[m].name, b.metrics[m].name) << info.name;
      EXPECT_EQ(a.metrics[m].value, b.metrics[m].value)
          << info.name << " metric " << a.metrics[m].name;
    }
    EXPECT_EQ(a.total_ops, b.total_ops) << info.name;
  }
}

TEST(ScenarioDeterminism, SeedChangesTheWorkload) {
  ScenarioConfig config = TinyConfig("MUTEX", 1, 2000);
  config.seed = 1;
  const ScenarioResult a = RunScenarioByName("kvstore/WT-RD", config);
  config.seed = 2;
  const ScenarioResult b = RunScenarioByName("kvstore/WT-RD", config);
  // Any single counter could collide across seeds; all of them at once
  // will not.
  EXPECT_FALSE(a.MetricOr("get_hits") == b.MetricOr("get_hits") &&
               a.MetricOr("puts_new") == b.MetricOr("puts_new") &&
               a.MetricOr("scans") == b.MetricOr("scans") &&
               a.MetricOr("size") == b.MetricOr("size"));
}

// --- Per-system counter invariants -------------------------------------------

// The invariants are linearizability facts, so they must hold for any
// thread count and any lock; run them multi-threaded under two very
// different algorithms (sleeping MUTEX, spinning TICKET).
class ScenarioInvariants : public ::testing::TestWithParam<std::string> {
 protected:
  ScenarioResult Run(const std::string& scenario) {
    return RunScenarioByName(scenario, TinyConfig(GetParam(), 4, 2500));
  }
};

TEST_P(ScenarioInvariants, KvStoreSizeMatchesPutsMinusErases) {
  for (const char* name : {"kvstore/WT", "kvstore/WT-RD", "kvstore/RD"}) {
    const ScenarioResult r = Run(name);
    EXPECT_EQ(r.MetricOr("size"),
              r.MetricOr("preloaded") + r.MetricOr("puts_new") - r.MetricOr("erases_hit"))
        << name;
    EXPECT_EQ(r.MetricOr("invariants_ok"), 1.0) << name;
    EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << name;
  }
}

TEST_P(ScenarioInvariants, CacheHitsBoundedAndCapacityHeld) {
  for (const char* name : {"cache/set-heavy", "cache/get-heavy"}) {
    const ScenarioResult r = Run(name);
    EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << name;
    // Tiny key space: far below capacity, so nothing may be evicted and the
    // size is bounded by the distinct keys touched (SkewedKey's range is
    // inclusive, so key_space=512 spans 513 keys).
    EXPECT_EQ(r.MetricOr("evictions"), 0.0) << name;
    EXPECT_LE(r.MetricOr("size"), 513.0) << name;
    EXPECT_GT(r.MetricOr("size"), 0.0) << name;
  }
}

TEST_P(ScenarioInvariants, NosqlCountBoundedByWrites) {
  for (const char* name : {"nosql/cache", "nosql/hash", "nosql/btree"}) {
    const ScenarioResult r = Run(name);
    EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << name;
    EXPECT_LE(r.MetricOr("removes_hit"), r.MetricOr("removes")) << name;
    // Count can only grow by Set/Append creations and shrink by hits.
    EXPECT_LE(r.MetricOr("count"),
              r.MetricOr("preloaded") + r.MetricOr("sets") + r.MetricOr("appends"))
        << name;
    EXPECT_GE(r.MetricOr("count"), r.MetricOr("preloaded") - r.MetricOr("removes_hit")) << name;
  }
}

TEST_P(ScenarioInvariants, GraphLogRecordsMatchLoggedWrites) {
  for (const char* name : {"graph/traverse", "graph/update"}) {
    const ScenarioResult r = Run(name);
    EXPECT_EQ(r.MetricOr("log_records"),
              r.MetricOr("preload_log_records") + r.MetricOr("logged_writes"))
        << name;
    EXPECT_EQ(r.MetricOr("node_read_hits"), r.MetricOr("node_reads")) << name;
  }
}

TEST_P(ScenarioInvariants, MiniSqlTpccConsistency) {
  for (const char* name : {"minisql/neworder", "minisql/payment"}) {
    const ScenarioResult r = Run(name);
    EXPECT_EQ(r.MetricOr("order_count"), r.MetricOr("neworders")) << name;
    // TPC-C consistency: warehouse YTD == sum of district YTD == payments
    // (every payment moves 1.0 through both).
    EXPECT_DOUBLE_EQ(r.MetricOr("warehouse_ytd"), r.MetricOr("payments")) << name;
    EXPECT_DOUBLE_EQ(r.MetricOr("district_ytd"), r.MetricOr("warehouse_ytd")) << name;
  }
}

TEST_P(ScenarioInvariants, WalStoreEveryWriteLandsInTheWal) {
  for (const char* name : {"walstore/append", "walstore/readwrite"}) {
    const ScenarioResult r = Run(name);
    EXPECT_EQ(r.MetricOr("wal_records"),
              r.MetricOr("preloaded") + r.MetricOr("puts") + r.MetricOr("deletes"))
        << name;
    EXPECT_GT(r.MetricOr("batches"), 0.0) << name;
    EXPECT_LE(r.MetricOr("batches"), r.MetricOr("wal_records")) << name;
  }
}

TEST_P(ScenarioInvariants, CowListSizeMatchesAddsMinusRemoves) {
  for (const char* name : {"cowlist/readmostly", "cowlist/writeheavy"}) {
    const ScenarioResult r = Run(name);
    EXPECT_EQ(r.MetricOr("size"),
              r.MetricOr("preloaded") + r.MetricOr("adds") - r.MetricOr("removes_hit"))
        << name;
    EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Locks, ScenarioInvariants, ::testing::Values("MUTEX", "TICKET"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Skew, SkewedKeyStaysInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LE(SkewedKey(&rng, 1000), 1000u);
  }
  // Degenerate space: always 0..16.
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(SkewedKey(&rng, 16), 16u);
  }
}

}  // namespace
}  // namespace lockin
