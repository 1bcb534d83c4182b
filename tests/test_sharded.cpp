// Sharding tests (src/systems/sharded.hpp): ShardedMap routing, the lock
// count every registered scenario builds (the striped shapes' shard counts
// reach their systems, and the one-lock systems stay one lock), and the
// striped and multi-lock paths under chaos with lockdep armed.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/lockdep.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/obs/trace.hpp"
#include "src/platform/failpoint.hpp"
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

// --- Every scenario's lock count ---------------------------------------------

// Locks leave no trace in seeded results, so count the ones Setup builds
// instead: a traced config gives every lock a fresh trace site id.
std::uint32_t LocksBuilt(const std::string& scenario) {
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 1;
  config.key_space = 64;
  config.trace = true;
  std::unique_ptr<ScenarioWorkload> workload = MakeScenarioOrThrow(scenario);
  const std::uint32_t before = NextTraceSiteId();
  workload->Setup(config);
  return NextTraceSiteId() - before - 1;
}

// Every scenario is a point where only the lock varies: each one builds at
// least one lock through MakeLockFactory, so a scenario that pins its own
// lock and ignores --lock fails here by name.
TEST(ScenarioShards, EveryScenarioBuildsItsRegisteredLockCount) {
  // MemCache: 16 stripes + the LRU lock; GraphStore: 32 row shards + the
  // log and id locks; MiniSql: writer + pager; WalStore: DB + memtable;
  // nosql/hash: 8 regions.
  const std::vector<std::pair<std::string, std::uint32_t>> expected = {
      {"kvstore/WT", 1},        {"kvstore/WT-RD", 1},      {"kvstore/RD", 1},
      {"cache/set-heavy", 17},  {"cache/get-heavy", 17},   {"nosql/cache", 1},
      {"nosql/hash", 8},        {"nosql/btree", 1},        {"graph/traverse", 34},
      {"graph/update", 34},     {"minisql/neworder", 2},   {"minisql/payment", 2},
      {"walstore/append", 2},   {"walstore/readwrite", 2}, {"cowlist/readmostly", 1},
      {"cowlist/writeheavy", 1},
  };
  const std::vector<ScenarioInfo> registered = RegisteredScenarios();
  ASSERT_EQ(registered.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(registered[i].name, expected[i].first);
    const std::uint32_t built = LocksBuilt(registered[i].name);
    EXPECT_GE(built, 1u) << registered[i].name << " builds no lock from MakeLockFactory";
    EXPECT_EQ(built, expected[i].second) << expected[i].first;
  }
}

// --- Chaos + lockdep over the registered shapes ------------------------------

// DefaultChaosSpec (spurious wakes, wake-all herds, delay injection) with
// the lockdep detector armed, over six systems at their registered shapes:
// the runs must survive the faults and the nested acquisitions (MiniSql's
// write -> pager, MemCache's LRU -> stripe) must form zero lock-order
// cycles.
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
