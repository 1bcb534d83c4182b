// FailSafe tests: deterministic failpoints, WAL crash recovery
// (kill-at-every-failpoint sweep), the stall watchdog, and the chaos sweep
// proving every scenario's counter invariants survive the default fault
// profile.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/locks/lock_registry.hpp"
#include "src/platform/failpoint.hpp"
#include "src/systems/wal_log.hpp"
#include "src/systems/walstore.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {
namespace {

// --- Failpoint registry ------------------------------------------------------

TEST(Failpoints, NamesRoundTrip) {
  for (std::size_t i = 0; i < kFailpointCount; ++i) {
    const FailpointId id = static_cast<FailpointId>(i);
    EXPECT_EQ(FailpointFromName(FailpointName(id)), id);
  }
  EXPECT_EQ(FailpointFromName("no/such-site"), FailpointId::kCount);
}

TEST(Failpoints, DisarmedSitesNeverFire) {
  FailpointsDisarm();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(FailpointFired(FailpointId::kFutexWait));
  }
}

TEST(Failpoints, AlwaysEveryOnceSemantics) {
  ScopedFailpoints arm("futex/wait=always,cache/evict=every3,wal/append=once@2", 1);
  for (int hit = 1; hit <= 6; ++hit) {
    EXPECT_TRUE(FailpointFired(FailpointId::kFutexWait)) << hit;
    EXPECT_EQ(FailpointFired(FailpointId::kCacheEvict), hit % 3 == 0) << hit;
    EXPECT_EQ(FailpointFired(FailpointId::kWalAppend), hit == 2) << hit;
  }
}

TEST(Failpoints, OffRuleAndUnarmedSitesStayQuiet) {
  ScopedFailpoints arm("futex/wait=off", 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(FailpointFired(FailpointId::kFutexWait));
    EXPECT_FALSE(FailpointFired(FailpointId::kFutexWake));
  }
}

TEST(Failpoints, DelayRulesStallButDoNotFail) {
  ScopedFailpoints arm("futex/wake=always~1000", 1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(FailpointFired(FailpointId::kFutexWake));
  }
  const std::vector<FailpointStatus> snapshot = FailpointsSnapshot();
  const FailpointStatus& wake =
      snapshot[static_cast<std::size_t>(FailpointId::kFutexWake)];
  EXPECT_EQ(wake.hits, 5u);
  EXPECT_EQ(wake.fires, 5u);
  EXPECT_EQ(wake.delays, 5u);
}

std::vector<bool> ProbabilisticPattern(std::uint64_t seed) {
  FailpointsArm("futex/wait=p0.3", seed);
  std::vector<bool> pattern;
  pattern.reserve(200);
  for (int i = 0; i < 200; ++i) {
    pattern.push_back(FailpointFired(FailpointId::kFutexWait));
  }
  FailpointsDisarm();
  return pattern;
}

TEST(Failpoints, ProbabilisticTriggersAreSeedDeterministic) {
  // Whether hit #k fires is a pure function of (seed, k): the same seed
  // replays exactly; a different seed gives a different pattern.
  const std::vector<bool> a = ProbabilisticPattern(42);
  EXPECT_EQ(a, ProbabilisticPattern(42));
  EXPECT_NE(a, ProbabilisticPattern(43));
  int fires = 0;
  for (const bool fired : a) {
    fires += fired ? 1 : 0;
  }
  EXPECT_GT(fires, 20);  // ~60 expected at p=0.3 over 200 hits
  EXPECT_LT(fires, 120);
}

TEST(Failpoints, MalformedSpecsThrowAndEnumerateSites) {
  EXPECT_THROW(FailpointsArm("bogus/site=always"), std::invalid_argument);
  EXPECT_THROW(FailpointsArm("futex/wait"), std::invalid_argument);
  EXPECT_THROW(FailpointsArm("futex/wait=notarule"), std::invalid_argument);
  EXPECT_THROW(FailpointsArm("=always"), std::invalid_argument);
  try {
    FailpointsArm("bogus/site=always");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    // The unknown-site message lists the valid sites.
    EXPECT_NE(std::string(error.what()).find("futex/wait"), std::string::npos)
        << error.what();
  }
  // A failed arm must not leave sites half-armed.
  EXPECT_FALSE(FailpointFired(FailpointId::kFutexWait));
}

TEST(Failpoints, ScopedArmingDisarmsOnExit) {
  {
    ScopedFailpoints arm("futex/wait=always", 1);
    EXPECT_TRUE(FailpointFired(FailpointId::kFutexWait));
  }
  EXPECT_FALSE(FailpointFired(FailpointId::kFutexWait));
}

TEST(Failpoints, ReportNamesFiringSites) {
  ScopedFailpoints arm("futex/wait=always", 1);
  (void)FailpointFired(FailpointId::kFutexWait);
  const std::string report = FailpointsReport();
  EXPECT_NE(report.find("futex/wait"), std::string::npos) << report;
}

TEST(Failpoints, DefaultChaosSpecParsesAndExcludesWalCrashSites) {
  const std::string spec = DefaultChaosSpec();
  ScopedFailpoints arm(spec, 1);  // throws if the profile ever goes stale
  EXPECT_EQ(spec.find("wal/append"), std::string::npos);
  EXPECT_EQ(spec.find("wal/flush"), std::string::npos);
}

// --- WalLog crash consistency ------------------------------------------------

std::string TempWalPath(const char* tag) {
  return std::string("failsafe_") + tag + ".wal";
}

TEST(WalLog, Crc32KnownVectors) {
  EXPECT_EQ(WalLog::Crc32(""), 0u);
  EXPECT_EQ(WalLog::Crc32("123456789"), 0xCBF43926u);  // IEEE check value
}

TEST(WalLog, AppendRecoverRoundTrip) {
  const std::string path = TempWalPath("roundtrip");
  std::remove(path.c_str());
  {
    WalLog log(path);
    log.Append("first");
    log.Append("");
    log.Append("third record with spaces");
  }
  WalLog reopened(path);
  std::vector<std::string> records;
  const WalLog::RecoverResult result = reopened.Recover(&records);
  EXPECT_EQ(result.valid_records, 3u);
  EXPECT_FALSE(result.truncated);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "first");
  EXPECT_EQ(records[1], "");
  EXPECT_EQ(records[2], "third record with spaces");
  std::remove(path.c_str());
}

TEST(WalLog, RecoveryTruncatesGarbageTail) {
  const std::string path = TempWalPath("garbage");
  std::remove(path.c_str());
  {
    WalLog log(path);
    log.Append("keep-me");
  }
  {
    // Simulate a torn write by appending raw garbage to the file.
    std::FILE* raw = std::fopen(path.c_str(), "ab");
    ASSERT_NE(raw, nullptr);
    const char garbage[] = "\xff\xff\xff\xff partial nonsense";
    std::fwrite(garbage, 1, sizeof(garbage), raw);
    std::fclose(raw);
  }
  WalLog reopened(path);
  std::vector<std::string> records;
  const WalLog::RecoverResult result = reopened.Recover(&records);
  EXPECT_EQ(result.valid_records, 1u);
  EXPECT_TRUE(result.truncated);
  EXPECT_GT(result.dropped_bytes, 0u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "keep-me");
  // Recovery physically truncated: a second recover sees a clean log.
  WalLog again(path);
  const WalLog::RecoverResult second = again.Recover(nullptr);
  EXPECT_EQ(second.valid_records, 1u);
  EXPECT_FALSE(second.truncated);
  std::remove(path.c_str());
}

TEST(WalLog, AppendFailpointTearsTheTail) {
  const std::string path = TempWalPath("torn");
  std::remove(path.c_str());
  {
    WalLog log(path);
    log.Append("one");
    log.Append("two");
    ScopedFailpoints arm("wal/append=once", 3);
    EXPECT_THROW(log.Append("never-lands"), WalCrashInjected);
  }
  WalLog reopened(path);
  std::vector<std::string> records;
  const WalLog::RecoverResult result = reopened.Recover(&records);
  EXPECT_EQ(result.valid_records, 2u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], "two");
  std::remove(path.c_str());
}

TEST(WalLog, FlushFailpointCrashesAfterDurableWrite) {
  const std::string path = TempWalPath("flush");
  std::remove(path.c_str());
  {
    WalLog log(path);
    ScopedFailpoints arm("wal/flush=once", 3);
    EXPECT_THROW(log.Append("durable-despite-crash"), WalCrashInjected);
  }
  // The crash struck after the record fully hit the file: it must survive.
  WalLog reopened(path);
  std::vector<std::string> records;
  const WalLog::RecoverResult result = reopened.Recover(&records);
  EXPECT_EQ(result.valid_records, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "durable-despite-crash");
  std::remove(path.c_str());
}

// --- WalStore kill-at-every-failpoint sweep ----------------------------------

LockFactory MutexFactory() {
  return [] { return MakeLockOrThrow("MUTEX"); };
}

// Kill the store at every possible append (torn write) and after every
// possible append (post-write crash); recovery must always produce exactly
// the writes that were confirmed -- plus at most the one in-flight record
// for the post-write crash, whose Put never returned.
TEST(WalStoreRecovery, KillAtEveryFailpointSweep) {
  const std::string path = TempWalPath("sweep");
  constexpr int kWrites = 8;
  for (const char* site : {"wal/append", "wal/flush"}) {
    for (int kill_at = 1; kill_at <= kWrites; ++kill_at) {
      std::remove(path.c_str());
      std::uint64_t confirmed = 0;
      {
        ScopedFailpoints arm(std::string(site) + "=once@" + std::to_string(kill_at),
                             static_cast<std::uint64_t>(kill_at));
        try {
          WalStore store(MutexFactory(), path);
          for (int i = 0; i < kWrites; ++i) {
            store.Put(static_cast<std::uint64_t>(i), "value-" + std::to_string(i));
            ++confirmed;
          }
        } catch (const WalCrashInjected&) {
          // Simulated kill: the store is dead, recovery happens on reopen.
        }
      }
      EXPECT_EQ(confirmed, static_cast<std::uint64_t>(kill_at - 1)) << site;

      WalStore reopened(MutexFactory(), path);
      const WalStore::RecoveryInfo& info = reopened.recovery_info();
      if (std::string(site) == "wal/append") {
        // Torn write: the in-flight record must be dropped.
        EXPECT_EQ(info.records, confirmed) << site << "@" << kill_at;
      } else {
        // Post-write crash: the record is durable even though Put threw.
        EXPECT_EQ(info.records, confirmed + 1) << site << "@" << kill_at;
      }
      // Every confirmed write is readable after recovery.
      for (std::uint64_t key = 0; key < confirmed; ++key) {
        std::string value;
        EXPECT_TRUE(reopened.Get(key, &value)) << site << "@" << kill_at << " key " << key;
        EXPECT_EQ(value, "value-" + std::to_string(key));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(WalStoreRecovery, DurableStoreReplaysPutsAndDeletes) {
  const std::string path = TempWalPath("replay");
  std::remove(path.c_str());
  {
    WalStore store(MutexFactory(), path);
    store.Put(1, "one");
    store.Put(2, "two");
    store.Delete(1);
    store.Put(3, "three three");  // value with a space survives the format
  }
  WalStore reopened(MutexFactory(), path);
  EXPECT_EQ(reopened.recovery_info().records, 4u);
  std::string value;
  EXPECT_FALSE(reopened.Get(1, nullptr));
  EXPECT_TRUE(reopened.Get(2, &value));
  EXPECT_EQ(value, "two");
  EXPECT_TRUE(reopened.Get(3, &value));
  EXPECT_EQ(value, "three three");
  EXPECT_EQ(reopened.MemtableSize(), 2u);
  std::remove(path.c_str());
}

// --- Stall watchdog ----------------------------------------------------------

// Thread 0 wedges (sleeps inside its first op) long enough for the
// watchdog to notice; everyone else finishes quickly.
class WedgeOnceWorkload : public ScenarioWorkload {
 public:
  explicit WedgeOnceWorkload(int wedge_ms) : wedge_ms_(wedge_ms) {}
  void Setup(const ScenarioConfig&) override {}
  void Op(ThreadContext& ctx) override {
    if (ctx.thread_index == 0 && !wedged_.exchange(true, std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(wedge_ms_));
    }
  }

 private:
  int wedge_ms_;
  std::atomic<bool> wedged_{false};
};

TEST(Watchdog, QuickRunsSeeNoStalls) {
  // A watchdog over a healthy run stays silent: the run is not aborted and
  // completes every op.
  WedgeOnceWorkload workload(/*wedge_ms=*/0);
  ScenarioConfig config;
  config.threads = 2;
  config.ops_per_thread = 100;
  config.watchdog_ms = 2000;
  config.meter = MeterChoice::kOff;
  const ScenarioResult result = RunScenario(workload, config, "test/quick");
  EXPECT_EQ(result.total_ops, 200u);
}

TEST(WatchdogDeathTest, AbortsWedgedRunWithExitCode3) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The on_stall hook runs before the exit; its marker on stderr proves it.
  EXPECT_EXIT(
      {
        WedgeOnceWorkload workload(/*wedge_ms=*/30000);
        ScenarioConfig config;
        config.threads = 2;
        config.ops_per_thread = 2;
        config.watchdog_ms = 50;
        config.meter = MeterChoice::kOff;
        config.on_stall = [] { std::fputs("on_stall hook ran\n", stderr); };
        RunScenario(workload, config, "test/wedge-abort");
      },
      ::testing::ExitedWithCode(3), "on_stall hook ran");
}

// --- Error-message enumeration -----------------------------------------------

TEST(ErrorMessages, UnknownLockEnumeratesAvailableNames) {
  try {
    MakeLockOrThrow("NOT-A-LOCK");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("NOT-A-LOCK"), std::string::npos) << what;
    for (const std::string& name : RegisteredLockNames()) {
      EXPECT_NE(what.find(name), std::string::npos) << what << " missing " << name;
    }
  }
}

TEST(ErrorMessages, UnknownScenarioEnumeratesAvailableNames) {
  try {
    MakeScenarioOrThrow("no/such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no/such-scenario"), std::string::npos) << what;
    EXPECT_NE(what.find("kvstore/WT"), std::string::npos) << what;
    EXPECT_NE(what.find("walstore/append"), std::string::npos) << what;
  }
}

// --- Chaos sweep: invariants survive the default fault profile ---------------

// Every registered scenario runs under MUTEX with DefaultChaosSpec armed
// (spurious futex wakes, wake-all herds, delay injection) and must still
// satisfy the same per-system counter invariants tests/test_scenarios.cpp
// checks for clean runs: the faults perturb timing and wake-ups, never
// linearizable state.
TEST(ChaosSweep, EveryScenarioSurvivesDefaultChaosUnderMutex) {
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    ScenarioConfig config;
    config.lock_name = "MUTEX";
    config.threads = 4;
    config.ops_per_thread = 1500;
    config.key_space = 512;
    config.failpoints = DefaultChaosSpec();
    config.meter = MeterChoice::kOff;
    const ScenarioResult r = RunScenarioByName(info.name, config);
    EXPECT_EQ(r.total_ops, 6000u) << info.name;

    if (info.system == "KvStore") {
      EXPECT_EQ(r.MetricOr("size"),
                r.MetricOr("preloaded") + r.MetricOr("puts_new") - r.MetricOr("erases_hit"))
          << info.name;
      EXPECT_EQ(r.MetricOr("invariants_ok"), 1.0) << info.name;
      EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << info.name;
    } else if (info.system == "MemCache") {
      EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << info.name;
      EXPECT_EQ(r.MetricOr("evictions"), 0.0) << info.name;
      EXPECT_LE(r.MetricOr("size"), 513.0) << info.name;
      EXPECT_GT(r.MetricOr("size"), 0.0) << info.name;
    } else if (info.system == "NosqlDb") {
      EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << info.name;
      EXPECT_LE(r.MetricOr("removes_hit"), r.MetricOr("removes")) << info.name;
      EXPECT_LE(r.MetricOr("count"),
                r.MetricOr("preloaded") + r.MetricOr("sets") + r.MetricOr("appends"))
          << info.name;
      EXPECT_GE(r.MetricOr("count"), r.MetricOr("preloaded") - r.MetricOr("removes_hit"))
          << info.name;
    } else if (info.system == "GraphStore") {
      EXPECT_EQ(r.MetricOr("log_records"),
                r.MetricOr("preload_log_records") + r.MetricOr("logged_writes"))
          << info.name;
      EXPECT_EQ(r.MetricOr("node_read_hits"), r.MetricOr("node_reads")) << info.name;
    } else if (info.system == "MiniSql") {
      EXPECT_EQ(r.MetricOr("order_count"), r.MetricOr("neworders")) << info.name;
      EXPECT_DOUBLE_EQ(r.MetricOr("warehouse_ytd"), r.MetricOr("payments")) << info.name;
      EXPECT_DOUBLE_EQ(r.MetricOr("district_ytd"), r.MetricOr("warehouse_ytd")) << info.name;
    } else if (info.system == "WalStore") {
      EXPECT_EQ(r.MetricOr("wal_records"),
                r.MetricOr("preloaded") + r.MetricOr("puts") + r.MetricOr("deletes"))
          << info.name;
      EXPECT_GT(r.MetricOr("batches"), 0.0) << info.name;
      EXPECT_LE(r.MetricOr("batches"), r.MetricOr("wal_records")) << info.name;
    } else if (info.system == "CowList") {
      EXPECT_EQ(r.MetricOr("size"),
                r.MetricOr("preloaded") + r.MetricOr("adds") - r.MetricOr("removes_hit"))
          << info.name;
      EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << info.name;
    } else if (info.system == "RwKv") {
      EXPECT_LE(r.MetricOr("get_hits"), r.MetricOr("gets")) << info.name;
    }
  }
  // The RAII scope inside the driver disarmed everything on the way out.
  EXPECT_FALSE(FailpointFired(FailpointId::kScenarioOp));
}

}  // namespace
}  // namespace lockin
