// Mini-system tests, parameterized over lock algorithms where concurrency
// is involved: the systems must behave identically regardless of the lock,
// which is precisely the property the paper's experiment relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "src/systems/cache.hpp"
#include "src/systems/cowlist.hpp"
#include "src/systems/graphstore.hpp"
#include "src/systems/kvstore.hpp"
#include "src/systems/minisql.hpp"
#include "src/systems/nosql.hpp"
#include "src/systems/walstore.hpp"

namespace lockin {
namespace {

class SystemsLockParam : public ::testing::TestWithParam<std::string> {
 protected:
  LockFactory Factory() const { return NamedLockFactory(GetParam()); }
};

// snprintf-based key builder: `prefix + std::to_string(n)` trips GCC 12's
// -Wrestrict false positive (PR105329) once MemCache's string handling
// inlines into the test bodies.
std::string CacheKey(const char* prefix, long n) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof buf, "%s%ld", prefix, n);
  return std::string(buf, static_cast<std::size_t>(len));
}

// --- CowList -----------------------------------------------------------------

TEST_P(SystemsLockParam, CowListBasics) {
  CowList list(Factory());
  list.Add(1);
  list.Add(2);
  list.Add(3);
  EXPECT_EQ(list.Size(), 3u);
  std::int64_t v = 0;
  ASSERT_TRUE(list.Get(1, &v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(list.Set(1, 20));
  EXPECT_EQ(list.Sum(), 24);
  EXPECT_TRUE(list.RemoveAt(0));
  EXPECT_EQ(list.Size(), 2u);
  EXPECT_FALSE(list.Get(5, &v));
  EXPECT_FALSE(list.Set(5, 1));
  EXPECT_FALSE(list.RemoveAt(5));
}

TEST_P(SystemsLockParam, CowListConcurrentReadersSeeConsistentSnapshots) {
  CowList list(Factory());
  for (int i = 0; i < 64; ++i) {
    list.Add(0);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  // Writers keep the invariant "all elements equal" within one snapshot.
  std::thread writer([&] {
    for (int round = 1; round < 300; ++round) {
      for (int i = 0; i < 64; ++i) {
        list.Set(static_cast<std::size_t>(i), round);
      }
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      const std::int64_t sum = list.Sum();
      // Sum of 64 equal values under per-element writes need not be a
      // multiple of 64, but any *single* Get must return a valid round.
      std::int64_t v = -1;
      if (list.Get(0, &v)) {
        if (v < 0 || v >= 300) {
          torn.store(true);
        }
      }
      (void)sum;
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(torn.load());
  std::int64_t v = 0;
  ASSERT_TRUE(list.Get(63, &v));
  EXPECT_EQ(v, 299);
}

// --- KvStore -----------------------------------------------------------------

TEST_P(SystemsLockParam, KvStoreBasics) {
  KvStore store(Factory());
  EXPECT_TRUE(store.Put(10, "ten"));
  EXPECT_FALSE(store.Put(10, "TEN"));
  std::string out;
  ASSERT_TRUE(store.Get(10, &out));
  EXPECT_EQ(out, "TEN");
  EXPECT_EQ(store.CountRange(0, 100), 1u);
  EXPECT_TRUE(store.Erase(10));
  EXPECT_FALSE(store.Get(10, &out));
}

TEST_P(SystemsLockParam, KvStoreConcurrentDisjointWriters) {
  KvStore store(Factory());
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        store.Put(static_cast<std::uint64_t>(t) * kPerThread + i, "v");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(store.Size(), kThreads * kPerThread);
  EXPECT_TRUE(store.CheckInvariants());
  EXPECT_EQ(store.CountRange(0, kThreads * kPerThread), kThreads * kPerThread);
}

// --- MemCache ----------------------------------------------------------------

TEST_P(SystemsLockParam, CacheSetGetDelete) {
  MemCache cache(Factory(), MemCache::Config{4, 1000});
  cache.Set("a", "1");
  cache.Set("b", "2");
  std::string out;
  ASSERT_TRUE(cache.Get("a", &out));
  EXPECT_EQ(out, "1");
  EXPECT_TRUE(cache.Delete("a"));
  EXPECT_FALSE(cache.Get("a", &out));
  EXPECT_FALSE(cache.Delete("a"));
  EXPECT_EQ(cache.Size(), 1u);
}

TEST_P(SystemsLockParam, CacheEvictsAtCapacity) {
  MemCache cache(Factory(), MemCache::Config{2, 50});
  for (int i = 0; i < 200; ++i) {
    cache.Set("key" + std::to_string(i), "v");
  }
  EXPECT_LE(cache.Size(), 60u);  // capacity + some slack during eviction
  EXPECT_GT(cache.evictions(), 100u);
}

TEST_P(SystemsLockParam, CacheConcurrentMixedWorkload) {
  MemCache cache(Factory(), MemCache::Config{8, 10000});
  std::vector<std::thread> threads;
  std::atomic<int> hits{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::string key = CacheKey("k", (t * 37 + i) % 500);
        if (i % 3 == 0) {
          cache.Set(key, std::to_string(i));
        } else {
          std::string out;
          if (cache.Get(key, &out)) {
            hits.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_GT(hits.load(), 0);
  EXPECT_LE(cache.Size(), 500u);
}

// Shard routing must stay hash(key) % shards across storage reworks: the
// open-addressing table stores the hash per entry now, but the key -> stripe
// mapping the benches and the paper-shape contention rely on is unchanged
// from the original unordered_map layout (which routed by
// std::hash<std::string> modulo the shard count).
TEST(CacheShardRouting, StableAcrossStorageRework) {
  for (const std::string key :
       {"a", "k123", "key-with-longer-content", "", "k0", "k59999"}) {
    for (const std::size_t shards : {1u, 2u, 16u, 64u}) {
      EXPECT_EQ(MemCache::ShardIndexFor(key, shards),
                std::hash<std::string>{}(key) % shards)
          << key << "/" << shards;
    }
  }
}

TEST_P(SystemsLockParam, CacheDeleteReusesTombstonedSlots) {
  // Delete leaves a tombstone; re-inserting the same key must find it again
  // and Size must stay consistent (regression guard on the probe path).
  MemCache cache(Factory(), MemCache::Config{1, 1000});
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      cache.Set(CacheKey("k", i), CacheKey("r", round));
    }
    EXPECT_EQ(cache.Size(), 50u);
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(cache.Delete(CacheKey("k", i)));
    }
    EXPECT_EQ(cache.Size(), 0u);
  }
  cache.Set("k1", "final");
  std::string out;
  ASSERT_TRUE(cache.Get("k1", &out));
  EXPECT_EQ(out, "final");
}

// --- NoSQL backends ----------------------------------------------------------

TEST_P(SystemsLockParam, NosqlBackendsBehaveIdentically) {
  HashDb cache_db(Factory(), 1);  // Kyoto CACHE: whole-DB lock
  HashDb hash_db(Factory(), 8);   // Kyoto HT: 8 bucket regions
  TreeDb tree_db(Factory());
  const std::vector<std::pair<const char*, NosqlDb*>> backends = {
      {"CACHE", &cache_db}, {"HT", &hash_db}, {"B-TREE", &tree_db}};
  for (const auto& [name, db] : backends) {
    SCOPED_TRACE(name);
    db->Set(1, "one");
    db->Set(2, "two");
    db->Append(1, "!");
    std::string out;
    ASSERT_TRUE(db->Get(1, &out));
    EXPECT_EQ(out, "one!");
    EXPECT_TRUE(db->Remove(2));
    EXPECT_FALSE(db->Get(2, &out));
    EXPECT_EQ(db->Count(), 1u);
  }
}

TEST_P(SystemsLockParam, NosqlConcurrentAppendsAllLand) {
  HashDb db(Factory(), 8);
  constexpr int kThreads = 4;
  constexpr int kAppends = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAppends; ++i) {
        db.Append(7, "x");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::string out;
  ASSERT_TRUE(db.Get(7, &out));
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kThreads * kAppends));
}

// --- WalStore ----------------------------------------------------------------

TEST_P(SystemsLockParam, WalStorePutGetDelete) {
  WalStore store(Factory());
  store.Put(1, "one");
  store.Put(2, "two");
  std::string out;
  ASSERT_TRUE(store.Get(1, &out));
  EXPECT_EQ(out, "one");
  store.Delete(1);
  EXPECT_FALSE(store.Get(1, &out));
  EXPECT_EQ(store.MemtableSize(), 1u);
  EXPECT_EQ(store.wal_records(), 3u);
}

TEST_P(SystemsLockParam, WalStoreConcurrentWritersBatch) {
  WalStore store(Factory());
  constexpr int kThreads = 4;
  constexpr std::uint64_t kWrites = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kWrites; ++i) {
        store.Put(static_cast<std::uint64_t>(t) * kWrites + i, std::to_string(i));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(store.MemtableSize(), kThreads * kWrites);
  EXPECT_EQ(store.wal_records(), kThreads * kWrites);
  // Group commit must have batched at least some writes (strictly fewer
  // batches than records unless there was zero concurrency).
  EXPECT_LE(store.batches(), store.wal_records());
  EXPECT_GT(store.batches(), 0u);
}

// --- MiniSql -----------------------------------------------------------------

TEST_P(SystemsLockParam, MiniSqlNewOrderAndStockLevel) {
  MiniSql db(Factory(), MiniSql::Config{2, 2, 100});
  Xoshiro256 rng(1);
  const std::uint64_t order = db.NewOrder(0, 1, {1, 2, 3}, &rng);
  EXPECT_NE(order, 0u);
  EXPECT_EQ(db.OrderCount(), 1u);
  EXPECT_GE(db.StockLevel(0, 1, 1000), 0);
}

TEST_P(SystemsLockParam, MiniSqlPaymentConsistency) {
  // TPC-C consistency condition: warehouse YTD equals the sum of its
  // districts' YTD after any number of concurrent payments.
  MiniSql db(Factory(), MiniSql::Config{1, 4, 50});
  constexpr int kThreads = 4;
  constexpr int kPayments = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPayments; ++i) {
        db.Payment(0, static_cast<int>(rng.NextBelow(4)), rng.NextBelow(100), 1.0);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_DOUBLE_EQ(db.WarehouseYtd(0), kThreads * kPayments * 1.0);
  EXPECT_DOUBLE_EQ(db.DistrictYtdSum(0), db.WarehouseYtd(0));
}

TEST_P(SystemsLockParam, MiniSqlConcurrentNewOrdersCount) {
  MiniSql db(Factory(), MiniSql::Config{2, 4, 200});
  constexpr int kThreads = 4;
  constexpr int kOrders = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 100);
      for (int i = 0; i < kOrders; ++i) {
        db.NewOrder(static_cast<int>(rng.NextBelow(2)), static_cast<int>(rng.NextBelow(4)),
                    {static_cast<int>(rng.NextBelow(200))}, &rng);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(db.OrderCount(), static_cast<std::uint64_t>(kThreads * kOrders));
}

// --- GraphStore --------------------------------------------------------------

TEST_P(SystemsLockParam, GraphStoreNodesAndLinks) {
  GraphStore graph(Factory(), 8);
  const std::uint64_t a = graph.AddNode("alice");
  const std::uint64_t b = graph.AddNode("bob");
  EXPECT_NE(a, b);
  std::string out;
  ASSERT_TRUE(graph.GetNode(a, &out));
  EXPECT_EQ(out, "alice");
  EXPECT_TRUE(graph.UpdateNode(a, "alice2"));
  EXPECT_FALSE(graph.UpdateNode(999999, "x"));

  graph.AddLink(a, 0, b);
  graph.AddLink(a, 0, b);  // duplicate ignored
  EXPECT_EQ(graph.CountLinks(a, 0), 1u);
  EXPECT_EQ(graph.GetLinkList(a, 0, 10).size(), 1u);
  EXPECT_TRUE(graph.DeleteLink(a, 0, b));
  EXPECT_FALSE(graph.DeleteLink(a, 0, b));
  EXPECT_EQ(graph.CountLinks(a, 0), 0u);
}

TEST_P(SystemsLockParam, GraphStoreConcurrentLinkWrites) {
  GraphStore graph(Factory(), 16);
  const std::uint64_t hub = graph.AddNode("hub");
  constexpr int kThreads = 4;
  constexpr int kLinks = 800;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLinks; ++i) {
        graph.AddLink(hub, t, static_cast<std::uint64_t>(i) + 1000);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(graph.CountLinks(hub, t), static_cast<std::size_t>(kLinks));
  }
  // Every write crossed the log lock exactly once.
  EXPECT_EQ(graph.log_records(), 1u + kThreads * kLinks);
}

INSTANTIATE_TEST_SUITE_P(Locks, SystemsLockParam,
                         ::testing::Values("MUTEX", "TICKET", "MUTEXEE", "MCS", "ADAPTIVE"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace lockin
