// Sharding tests (src/systems/sharded.hpp): ShardedMap routing, the
// sharded-vs-single equivalence the systems rely on, the shard count
// reaching every sharded system, and the per-system counter invariants
// under every shards x lock combination -- sharding must never change what
// the systems compute, only how the locks are carved up.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "src/analysis/lockdep.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/obs/trace.hpp"
#include "src/platform/failpoint.hpp"
#include "src/systems/kvstore.hpp"
#include "src/systems/sharded.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {
namespace {

LockFactory Mutex() { return NamedLockFactory("MUTEX"); }

// --- ShardedMap --------------------------------------------------------------

using IntMap = std::map<std::uint64_t, std::uint64_t>;

TEST(ShardedMap, RoutesHashModuloShards) {
  ShardedMap<IntMap> map(Mutex(), 4);
  ASSERT_EQ(map.shard_count(), 4u);
  for (std::uint64_t hash = 0; hash < 100; ++hash) {
    EXPECT_EQ(map.IndexFor(hash), hash % 4);
    map.WithShard(hash, [hash](IntMap& table) { table[hash] = hash; });
  }
  // Every write landed in exactly the shard IndexFor names.
  for (std::uint64_t hash = 0; hash < 100; ++hash) {
    EXPECT_EQ(map.UnsafeShardAt(hash % 4).count(hash), 1u) << hash;
  }
}

TEST(ShardedMap, ZeroShardsClampsToOne) {
  ShardedMap<IntMap> map(Mutex(), 0);
  EXPECT_EQ(map.shard_count(), 1u);
  EXPECT_EQ(map.IndexFor(12345), 0u);
}

TEST(ShardedMap, ForEachShardAggregates) {
  ShardedMap<IntMap> map(Mutex(), 8);
  for (std::uint64_t key = 0; key < 64; ++key) {
    map.WithShard(ShardedMap<IntMap>::MixHash(key), [key](IntMap& table) { table[key] = 1; });
  }
  std::size_t total = 0;
  map.ForEachShard([&total](IntMap& table) { total += table.size(); });
  EXPECT_EQ(total, 64u);
}

TEST(ShardedMap, MixHashSpreadsDenseKeys) {
  // Sequential integer keys must land near-uniformly across shards
  // (binomial mean 512, sd ~21 here; the bounds are > 5 sd out).
  constexpr std::uint64_t kKeys = 4096;
  constexpr std::size_t kShards = 8;
  std::size_t counts[kShards] = {};
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    ++counts[ShardedMap<IntMap>::MixHash(key) % kShards];
  }
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_GT(counts[shard], 384u) << shard;
    EXPECT_LT(counts[shard], 640u) << shard;
  }
}

TEST(ShardedMap, ReturnsTheClosureResult) {
  ShardedMap<IntMap> map(Mutex(), 2);
  map.WithShard(7, [](IntMap& table) { table[7] = 70; });
  const std::uint64_t value =
      map.WithShard(7, [](IntMap& table) -> std::uint64_t { return table.at(7); });
  EXPECT_EQ(value, 70u);
  // A const Table& closure is a read-only path.
  EXPECT_EQ(map.WithShard(8, [](const IntMap& table) { return table.size(); }), 0u);
}

// --- Sharded vs single-lock equivalence --------------------------------------

// The same deterministic op tape against a one-lock and a sharded KvStore
// must produce identical op results, sizes and range counts: partitioning
// a B+-tree by key hash is invisible to callers.
TEST(ShardedEquivalence, KvStoreShardedMatchesSingleLock) {
  KvStore single(Mutex(), 1);
  KvStore sharded(Mutex(), 5);  // non-power-of-two
  KvStore* stores[] = {&single, &sharded};

  std::uint64_t state = 42;
  auto next = [&state] {  // xorshift64: cheap deterministic tape
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t key = next() % 512;
    const int kind = static_cast<int>(next() % 4);
    bool expected = false;
    for (int s = 0; s < 2; ++s) {
      bool got = false;
      switch (kind) {
        case 0: {
          // snprintf sidesteps GCC 12's -Wrestrict false positive on
          // `"v" + std::to_string(op)` (PR105329, see test_systems.cpp).
          char value[16];
          std::snprintf(value, sizeof value, "v%d", op);
          got = stores[s]->Put(key, value);
          break;
        }
        case 1: {
          std::string value;
          got = stores[s]->Get(key, &value);
          break;
        }
        case 2:
          got = stores[s]->Erase(key);
          break;
        default:
          got = stores[s]->CountRange(key, key + 64) > 0;
          break;
      }
      if (s == 0) {
        expected = got;
      } else {
        EXPECT_EQ(got, expected) << "op " << op << " kind " << kind << " store " << s;
      }
    }
  }
  EXPECT_EQ(sharded.Size(), single.Size());
  EXPECT_EQ(sharded.CountRange(0, 511), single.CountRange(0, 511));
  EXPECT_TRUE(sharded.CheckInvariants());
}

// --- The shard count reaches every sharded system ----------------------------

// Sharding is invisible in results, so count the locks Setup builds
// instead: a traced config gives every lock a fresh trace site id.
std::uint32_t LocksBuilt(const std::string& scenario, std::uint32_t shards) {
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 1;
  config.key_space = 64;
  config.trace = true;
  config.shards = shards;
  std::unique_ptr<ScenarioWorkload> workload = MakeScenarioOrThrow(scenario);
  const std::uint32_t before = NextTraceSiteId();
  workload->Setup(config);
  return NextTraceSiteId() - before - 1;
}

TEST(ScenarioShards, OverrideReachesEveryShardedSystem) {
  struct Case {
    const char* scenario;
    std::uint32_t default_shards;
  };
  const Case cases[] = {
      {"kvstore/WT", 1},
      {"cache/get-heavy", 16},
      {"nosql/cache", 1},
      {"nosql/hash", 8},
      {"nosql/btree", 1},
      {"graph/update", 32},
      {"minisql/neworder", 1},
      {"walstore/readwrite", 1},
  };
  for (const Case& c : cases) {
    const std::uint32_t two = LocksBuilt(c.scenario, 2);
    EXPECT_EQ(LocksBuilt(c.scenario, 7), two + 5) << c.scenario;
    EXPECT_EQ(LocksBuilt(c.scenario, 0), two + c.default_shards - 2) << c.scenario;
  }
}

// --- Scenario invariants across the shards x lock matrix ----------------------

// Linearizability facts (kvstore size accounting, the graph's write-ahead
// log count, WAL record count, TPC-C YTD consistency) must hold however
// the locks are carved up, under a sleeping and a spinning lock alike.
class ShardMatrix : public ::testing::TestWithParam<std::string> {
 protected:
  ScenarioResult Run(const std::string& scenario, std::uint32_t shards) {
    ScenarioConfig config;
    config.lock_name = GetParam();
    config.threads = 4;
    config.ops_per_thread = 600;
    config.key_space = 512;
    config.record_latency = false;
    config.meter = MeterChoice::kOff;
    config.shards = shards;
    return RunScenarioByName(scenario, config);
  }

  struct Variant {
    const char* name;
    std::uint32_t shards;
  };
  static constexpr Variant kVariants[] = {
      {"single", 1},
      {"sharded", 4},
  };
};

constexpr ShardMatrix::Variant ShardMatrix::kVariants[];

TEST_P(ShardMatrix, KvStoreSizeAccounting) {
  for (const Variant& v : kVariants) {
    const ScenarioResult r = Run("kvstore/WT-RD", v.shards);
    EXPECT_EQ(r.MetricOr("size"),
              r.MetricOr("preloaded") + r.MetricOr("puts_new") - r.MetricOr("erases_hit"))
        << v.name;
    EXPECT_EQ(r.MetricOr("invariants_ok"), 1.0) << v.name;
  }
}

TEST_P(ShardMatrix, NosqlCountBounds) {
  for (const char* scenario : {"nosql/btree", "nosql/hash"}) {
    for (const Variant& v : kVariants) {
      const ScenarioResult r = Run(scenario, v.shards);
      EXPECT_LE(r.MetricOr("count"),
                r.MetricOr("preloaded") + r.MetricOr("sets") + r.MetricOr("appends"))
          << scenario << "/" << v.name;
      EXPECT_GE(r.MetricOr("count"), r.MetricOr("preloaded") - r.MetricOr("removes_hit"))
          << scenario << "/" << v.name;
    }
  }
}

TEST_P(ShardMatrix, GraphLogRecordsMatchWrites) {
  for (const Variant& v : kVariants) {
    const ScenarioResult r = Run("graph/update", v.shards);
    EXPECT_EQ(r.MetricOr("log_records"),
              r.MetricOr("preload_log_records") + r.MetricOr("logged_writes"))
        << v.name;
    EXPECT_EQ(r.MetricOr("node_read_hits"), r.MetricOr("node_reads")) << v.name;
  }
}

TEST_P(ShardMatrix, WalStoreEveryWriteLands) {
  for (const Variant& v : kVariants) {
    const ScenarioResult r = Run("walstore/readwrite", v.shards);
    EXPECT_EQ(r.MetricOr("wal_records"),
              r.MetricOr("preloaded") + r.MetricOr("puts") + r.MetricOr("deletes"))
        << v.name;
  }
}

TEST_P(ShardMatrix, MiniSqlYtdConsistency) {
  for (const Variant& v : kVariants) {
    const ScenarioResult r = Run("minisql/neworder", v.shards);
    EXPECT_EQ(r.MetricOr("order_count"), r.MetricOr("neworders")) << v.name;
    EXPECT_DOUBLE_EQ(r.MetricOr("warehouse_ytd"), r.MetricOr("payments")) << v.name;
    EXPECT_DOUBLE_EQ(r.MetricOr("district_ytd"), r.MetricOr("warehouse_ytd")) << v.name;
  }
}

TEST_P(ShardMatrix, CacheHitsBounded) {
  for (const Variant& v : kVariants) {
    const ScenarioResult r = Run("cache/set-heavy", v.shards);
    EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << v.name;
    EXPECT_EQ(r.MetricOr("evictions"), 0.0) << v.name;
    EXPECT_GT(r.MetricOr("size"), 0.0) << v.name;
    EXPECT_LE(r.MetricOr("size"), 513.0) << v.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Locks, ShardMatrix, ::testing::Values("MUTEX", "TICKET"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- Chaos + lockdep over the sharded paths ----------------------------------

// DefaultChaosSpec (spurious wakes, wake-all herds, delay injection) with
// the lockdep detector armed, over every sharded system at 4 shards: the
// invariants must survive the faults and the multi-lock carve-up must
// introduce zero lock-order cycles (db lock -> shard lock orderings stay
// acyclic).
TEST(ShardChaos, ShardedPathsSurviveChaosWithLockdepClean) {
  LockdepReset();
  for (const char* scenario : {"kvstore/WT-RD", "nosql/btree", "graph/update",
                               "walstore/readwrite", "cache/get-heavy", "minisql/neworder"}) {
    ScenarioConfig config;
    config.lock_name = "MUTEX";
    config.threads = 4;
    config.ops_per_thread = 800;
    config.key_space = 512;
    config.record_latency = false;
    config.meter = MeterChoice::kOff;
    config.failpoints = DefaultChaosSpec();
    config.lockdep = true;
    config.shards = 4;
    const ScenarioResult r = RunScenarioByName(scenario, config);
    EXPECT_EQ(r.total_ops, 3200u) << scenario;
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
