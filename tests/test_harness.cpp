// Native measurement harness tests (short runs; host-speed independent).
#include <gtest/gtest.h>

#include <memory>

#include "src/energy/model_meter.hpp"
#include "src/locks/harness.hpp"
#include "src/platform/topology.hpp"

namespace lockin {
namespace {

NativeBenchConfig ShortConfig(const std::string& lock) {
  NativeBenchConfig config;
  config.lock_name = lock;
  config.threads = 2;
  config.cs_cycles = 200;
  config.non_cs_cycles = 100;
  config.duration_ms = 30;
  config.lock_options.spin.yield_after = 64;
  return config;
}

TEST(NativeHarness, ProducesThroughput) {
  const NativeBenchResult result = RunNativeBench(ShortConfig("MUTEXEE"));
  EXPECT_GT(result.total_acquires, 100u);
  EXPECT_GT(result.throughput_per_s, 0.0);
  EXPECT_NEAR(result.seconds, 0.03, 0.05);
  // One latency sample per acquire.
  EXPECT_EQ(result.acquire_latency_cycles.count(), result.total_acquires);
}

TEST(NativeHarness, UnknownLockThrows) {
  NativeBenchConfig config = ShortConfig("NOPE");
  EXPECT_THROW(RunNativeBench(config), std::invalid_argument);
}

TEST(NativeHarness, MultipleLocksSpreadContention) {
  NativeBenchConfig one = ShortConfig("TICKET");
  NativeBenchConfig many = ShortConfig("TICKET");
  many.locks = 8;
  many.seed = 2;
  const NativeBenchResult r1 = RunNativeBench(one);
  const NativeBenchResult r8 = RunNativeBench(many);
  EXPECT_GT(r1.total_acquires, 0u);
  EXPECT_GT(r8.total_acquires, 0u);
}

TEST(NativeHarness, MeterIntegration) {
  auto registry = std::make_shared<ActivityRegistry>(
      PowerModel(Topology::Detect(), PowerParams::PaperXeon()));
  ModelMeter meter(registry);
  const NativeBenchResult result = RunNativeBench(ShortConfig("MUTEX"), &meter);
  EXPECT_GT(result.energy.seconds, 0.0);
  EXPECT_GT(result.energy.total_joules(), 0.0);
  EXPECT_GT(result.tpp, 0.0);
}

TEST(NativeHarness, LatencyRecordingCanBeDisabled) {
  NativeBenchConfig config = ShortConfig("TTAS");
  config.record_latency = false;
  const NativeBenchResult result = RunNativeBench(config);
  EXPECT_EQ(result.acquire_latency_cycles.count(), 0u);
  EXPECT_GT(result.total_acquires, 0u);
}

// --- Dispatch tiers ----------------------------------------------------------

TEST(NativeHarness, ConcreteLocksRunOnTheStaticTier) {
  const NativeBenchResult result = RunNativeBench(ShortConfig("TAS"));
  EXPECT_TRUE(result.used_static_dispatch);
  EXPECT_GT(result.total_acquires, 0u);
}

TEST(NativeHarness, AdaptiveFallsBackToTheHandleTier) {
  const NativeBenchResult result = RunNativeBench(ShortConfig("ADAPTIVE"));
  EXPECT_FALSE(result.used_static_dispatch);
  EXPECT_GT(result.total_acquires, 0u);
  // The handle tier keeps the static tier's one-sample-per-acquire contract.
  EXPECT_EQ(result.acquire_latency_cycles.count(), result.total_acquires);
}

}  // namespace
}  // namespace lockin
