// Unit tests for src/platform: cycle counting, topology, pinning order,
// pausing primitives, RNG.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/platform/cacheline.hpp"
#include "src/platform/cycles.hpp"
#include "src/platform/rng.hpp"
#include "src/platform/spin_hint.hpp"
#include "src/platform/topology.hpp"

namespace lockin {
namespace {

TEST(Cycles, ReadCyclesMonotonic) {
  const std::uint64_t a = ReadCycles();
  const std::uint64_t b = ReadCycles();
  EXPECT_GE(b, a);
}

TEST(Cycles, CalibrationPositive) {
  EXPECT_GT(CyclesPerNs(), 0.05);   // even a slow VM is >50 MHz
  EXPECT_LT(CyclesPerNs(), 20.0);   // and <20 GHz
}

TEST(Cycles, RoundTripConversion) {
  const std::uint64_t ns = 1000000;
  const std::uint64_t cycles = NsToCycles(ns);
  const std::uint64_t back = CyclesToNs(cycles);
  EXPECT_NEAR(static_cast<double>(back), static_cast<double>(ns),
              static_cast<double>(ns) * 0.05);
}

TEST(Cycles, SpinForCyclesWaitsApproximately) {
  const std::uint64_t start = ReadCycles();
  SpinForCycles(100000);
  EXPECT_GE(ReadCycles() - start, 100000u);
}

TEST(Topology, SyntheticPaperXeon) {
  const Topology xeon = Topology::PaperXeon();
  EXPECT_EQ(xeon.sockets(), 2);
  EXPECT_EQ(xeon.cores_per_socket(), 10);
  EXPECT_EQ(xeon.smt_per_core(), 2);
  EXPECT_EQ(xeon.total_cores(), 20);
  EXPECT_EQ(xeon.total_contexts(), 40);
  EXPECT_EQ(xeon.cpus().size(), 40u);
}

TEST(Topology, PinningOrderFillsCoresBeforeHyperthreads) {
  // Paper methodology: cores of socket 0, then socket 1, then hyper-threads.
  const Topology xeon = Topology::PaperXeon();
  const std::vector<CpuInfo> order = xeon.PinningOrder();
  ASSERT_EQ(order.size(), 40u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)].smt_index, 0) << i;
  }
  for (int i = 20; i < 40; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)].smt_index, 1) << i;
  }
  // First ten on socket 0, next ten on socket 1.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)].socket, 0) << i;
  }
  for (int i = 10; i < 20; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)].socket, 1) << i;
  }
}

TEST(Topology, PinningOrderIsAPermutation) {
  const Topology xeon = Topology::PaperXeon();
  std::set<int> os_ids;
  for (const CpuInfo& cpu : xeon.PinningOrder()) {
    os_ids.insert(cpu.os_cpu);
  }
  EXPECT_EQ(os_ids.size(), 40u);
}

TEST(Topology, DetectReturnsSomethingSane) {
  const Topology host = Topology::Detect();
  EXPECT_GE(host.total_contexts(), 1);
  EXPECT_FALSE(host.ToString().empty());
}

TEST(Topology, PinThreadToCpuZero) {
  // CPU 0 always exists.
  EXPECT_TRUE(PinThreadToCpu(0));
}

TEST(SpinHint, AllPauseKindsExecute) {
  for (PauseKind kind : {PauseKind::kNone, PauseKind::kNop, PauseKind::kPause,
                         PauseKind::kMfence, PauseKind::kYield}) {
    SpinPause(kind);  // must not crash or hang
  }
}

TEST(CacheAligned, ProvidesAlignment) {
  CacheAligned<int> values[4];
  for (auto& value : values) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&value) % kCacheLineSize, 0u);
  }
  *values[0] = 7;
  EXPECT_EQ(values[0].value, 7);
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Xoshiro256 rng(5);
  int buckets[10] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    buckets[rng.NextBelow(10)]++;
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);
  }
}

}  // namespace
}  // namespace lockin
