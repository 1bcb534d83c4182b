// Property-based tests: randomized reference checks and parameterized
// sweeps over the library's core invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <tuple>
#include <vector>

#include "src/lockin.hpp"
#include "src/sim/workload.hpp"

namespace lockin {
namespace {

// ---------------------------------------------------------------------------
// Histogram: percentiles against an exact sorted-vector reference, over
// several random distributions (seed-parameterized).
// ---------------------------------------------------------------------------
class HistogramProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramProperty, PercentilesWithinRelativeErrorOfReference) {
  Xoshiro256 rng(GetParam());
  LatencyHistogram hist;
  std::vector<std::uint64_t> reference;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    // Mixture: mostly small values, a heavy log-uniform tail -- the shape
    // of real lock-acquire distributions.
    std::uint64_t value;
    if (rng.NextDouble() < 0.9) {
      value = 100 + rng.NextBelow(5000);
    } else {
      value = 1ULL << (10 + rng.NextBelow(24));
      value += rng.NextBelow(value);
    }
    hist.Record(value);
    reference.push_back(value);
  }
  std::sort(reference.begin(), reference.end());
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99, 0.999, 0.9999}) {
    const std::size_t rank = std::min(
        reference.size() - 1,
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(kSamples))) - 1);
    const double exact = static_cast<double>(reference[rank]);
    const double approx = static_cast<double>(hist.Percentile(q));
    // Log-bucket resolution: ~3.2% worst-case relative error (5 sub-bucket
    // bits), plus one-rank slack at the ends.
    EXPECT_LE(approx, exact * 1.001 + 1) << "q=" << q;
    EXPECT_GE(approx, exact * 0.96 - 1) << "q=" << q;
  }
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(hist.max(), reference.back());
  EXPECT_EQ(hist.min(), reference.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ---------------------------------------------------------------------------
// Power model: structural invariants over all states and counts.
// ---------------------------------------------------------------------------
TEST(PowerModelProperty, ActivityNeverDecreasesPower) {
  const PowerModel model(Topology::PaperXeon(), PowerParams::PaperXeon());
  for (int state_index = 0; state_index < kActivityStateCount; ++state_index) {
    const auto state = static_cast<ActivityState>(state_index);
    if (state == ActivityState::kSpinDvfsMin) {
      // Legitimately non-monotone: when the 21st+ thread lands on an
      // already-active core, both siblings now request the min VF point and
      // the whole core drops its frequency -- power falls (Figure 5's
      // DVFS-normal knee).
      continue;
    }
    double prev = 0;
    for (int threads = 0; threads <= 40; threads += 4) {
      std::vector<ActivityState> states(40, ActivityState::kInactive);
      for (int i = 0; i < threads; ++i) {
        states[static_cast<std::size_t>(i)] = state;
      }
      const double watts = model.TotalWatts(states);
      EXPECT_GE(watts + 1e-9, prev) << "state " << static_cast<int>(state) << " at " << threads;
      prev = watts;
    }
  }
}

TEST(PowerModelProperty, BreakdownComponentsSumToTotal) {
  const PowerModel model(Topology::PaperXeon(), PowerParams::PaperXeon());
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ActivityState> states(40);
    for (auto& s : states) {
      s = static_cast<ActivityState>(rng.NextBelow(kActivityStateCount));
    }
    const std::vector<VfSetting> vf(40, rng.NextBelow(2) == 0 ? VfSetting::kMax
                                                              : VfSetting::kMin);
    const PowerModel::Breakdown b = model.ComponentWatts(states, vf);
    EXPECT_NEAR(b.total(), model.TotalWatts(states, vf), 1e-9);
    EXPECT_GE(b.package_w, b.cores_w);  // package power includes core power
    EXPECT_GE(b.dram_w, 24.9);          // DRAM background is always there
  }
}

TEST(PowerModelProperty, MinVfNeverAboveMaxVf) {
  const PowerModel model(Topology::PaperXeon(), PowerParams::PaperXeon());
  Xoshiro256 rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ActivityState> states(40, ActivityState::kInactive);
    const int active = static_cast<int>(rng.NextBelow(41));
    for (int i = 0; i < active; ++i) {
      states[static_cast<std::size_t>(i)] = ActivityState::kWorking;
    }
    EXPECT_LE(model.TotalWatts(states, VfSetting::kMin),
              model.TotalWatts(states, VfSetting::kMax) + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Simulated workload invariants over a (lock x threads x cs) grid.
// ---------------------------------------------------------------------------
using GridParam = std::tuple<std::string, int, std::uint64_t>;

class WorkloadGridProperty : public ::testing::TestWithParam<GridParam> {};

TEST_P(WorkloadGridProperty, AccountingInvariantsHold) {
  const auto& [lock, threads, cs] = GetParam();
  WorkloadConfig config;
  config.threads = threads;
  config.cs_cycles = cs;
  config.non_cs_cycles = 150;
  config.duration_cycles = 8'000'000;
  config.seed = 3;
  const WorkloadResult r = RunLockWorkload(lock, config);

  // Work conservation: the lock cannot complete more critical sections than
  // the serial capacity of one lock allows.
  const double max_possible =
      static_cast<double>(config.duration_cycles) / std::max<std::uint64_t>(cs, 1);
  EXPECT_LE(static_cast<double>(r.total_acquires), max_possible + threads + 1);
  EXPECT_GT(r.total_acquires, 0u);

  // Handover kinds partition lock-side acquires.
  EXPECT_EQ(r.lock_stats.acquires,
            r.lock_stats.spin_handovers + r.lock_stats.futex_handovers +
                r.lock_stats.timeout_handovers);

  // Energy sanity: average power between idle and the machine maximum.
  EXPECT_GE(r.average_watts, 55.0);
  EXPECT_LE(r.average_watts, 260.0);
  EXPECT_NEAR(r.seconds, static_cast<double>(config.duration_cycles) / 2.8e9, 1e-9);

  // Latency records: one per completed acquire plus at most `threads`
  // censored waiters.
  EXPECT_GE(r.acquire_latency_cycles.count(), r.total_acquires);
  EXPECT_LE(r.acquire_latency_cycles.count(),
            r.total_acquires + static_cast<std::uint64_t>(threads));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkloadGridProperty,
    ::testing::Combine(::testing::Values("MUTEX", "TICKET", "MCS", "MUTEXEE"),
                       ::testing::Values(2, 8, 24, 48),
                       ::testing::Values(std::uint64_t{200}, std::uint64_t{2000},
                                         std::uint64_t{10000})),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::get<0>(info.param) + "_t" + std::to_string(std::get<1>(info.param)) + "_cs" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// POLY as a property: across random configurations, throughput and TPP
// correlate strongly for every lock.
// ---------------------------------------------------------------------------
TEST(PolyProperty, ThroughputTppCorrelationIsStrong) {
  std::vector<double> tput;
  std::vector<double> tpp;
  Xoshiro256 rng(2026);
  for (int trial = 0; trial < 24; ++trial) {
    WorkloadConfig config;
    config.threads = 1 + static_cast<int>(rng.NextBelow(16));
    config.locks = 1 << rng.NextBelow(5);
    config.cs_cycles = rng.NextBelow(6000);
    config.non_cs_cycles = rng.NextBelow(2000);
    config.duration_cycles = 6'000'000;
    config.seed = rng.Next();
    const char* locks[] = {"MUTEX", "TICKET", "MUTEXEE"};
    const WorkloadResult r = RunLockWorkload(locks[trial % 3], config);
    tput.push_back(r.throughput_per_s);
    tpp.push_back(r.tpp);
  }
  EXPECT_GT(PearsonCorrelation(tput, tpp), 0.85);
}

// ---------------------------------------------------------------------------
// Core-i7 desktop (the paper's second platform): same shapes on the
// smaller topology.
// ---------------------------------------------------------------------------
TEST(CoreI7Property, ShapesHoldOnTheDesktopTopology) {
  WorkloadEnv env;
  env.topology = Topology(1, 4, 2);  // the paper's Core-i7: 1 socket x 4 cores x 2 HTs
  auto run = [&](const char* lock, int threads) {
    WorkloadConfig config;
    config.threads = threads;
    config.cs_cycles = 1000;
    config.non_cs_cycles = 100;
    config.duration_cycles = 14'000'000;
    return RunLockWorkload(lock, config, env);
  };
  // At full subscription (8 threads), the paper's ordering holds.
  const WorkloadResult mutex = run("MUTEX", 8);
  const WorkloadResult ticket = run("TICKET", 8);
  const WorkloadResult mutexee = run("MUTEXEE", 8);
  EXPECT_GT(ticket.throughput_per_s, mutex.throughput_per_s);
  EXPECT_GT(mutexee.tpp, mutex.tpp);
  // Oversubscription beyond 8 hardware threads collapses the fair lock.
  const WorkloadResult ticket16 = run("TICKET", 16);
  EXPECT_LT(ticket16.throughput_per_s, ticket.throughput_per_s * 0.25);
  const WorkloadResult mutexee16 = run("MUTEXEE", 16);
  EXPECT_GT(mutexee16.throughput_per_s, ticket16.throughput_per_s);
}

// ---------------------------------------------------------------------------
// Native locks: randomized hold/think times across every algorithm (the
// registry sweep complements test_locks' fixed-pattern tests).
// ---------------------------------------------------------------------------
class NativeLockFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(NativeLockFuzz, RandomizedHoldTimesPreserveExclusion) {
  LockBuildOptions options;
  options.spin.yield_after = 48;
  auto lock = MakeLockOrThrow(GetParam(), options);
  long long counter = 0;
  std::atomic<bool> violated{false};
  std::atomic<int> inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) * 31 + 5);
      for (int i = 0; i < 800; ++i) {
        lock->lock();
        if (inside.fetch_add(1) != 0) {
          violated.store(true);
        }
        SpinForCycles(rng.NextBelow(2000));
        counter = counter + 1;
        inside.fetch_sub(1);
        lock->unlock();
        if (rng.NextBelow(4) == 0) {
          SpinForCycles(rng.NextBelow(1000));
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(counter, 3200);
}

INSTANTIATE_TEST_SUITE_P(AllLocks, NativeLockFuzz,
                         ::testing::Values("MUTEX", "TAS", "TTAS", "TICKET", "MCS", "CLH",
                                           "MUTEXEE"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace lockin
