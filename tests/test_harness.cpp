// Native measurement harness tests (short runs; host-speed independent).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/locks/harness.hpp"
#include "src/locks/static_dispatch.hpp"
#include "src/platform/topology.hpp"

namespace lockin {
namespace {

ScenarioConfig ShortConfig(const std::string& lock) {
  ScenarioConfig config;
  config.lock_name = lock;
  config.threads = 2;
  config.duration_ms = 30;
  config.meter = MeterChoice::kOff;
  return config;
}

AcquireShape ShortShape() {
  AcquireShape shape;
  shape.cs_cycles = 200;
  shape.non_cs_cycles = 100;
  shape.lock_options.spin.yield_after = 64;
  return shape;
}

TEST(NativeHarness, ProducesThroughput) {
  const ScenarioResult result = RunNativeBench(ShortConfig("MUTEXEE"), ShortShape());
  EXPECT_GT(result.total_ops, 100u);
  EXPECT_GT(result.ops_per_s, 0.0);
  EXPECT_NEAR(result.seconds, 0.03, 0.05);
  // One latency sample per acquire.
  EXPECT_EQ(result.op_latency_cycles.count(), result.total_ops);
}

TEST(NativeHarness, UnknownLockThrows) {
  EXPECT_THROW(RunNativeBench(ShortConfig("NOPE"), ShortShape()), std::invalid_argument);
}

TEST(NativeHarness, MultipleLocksSpreadContention) {
  ScenarioConfig many = ShortConfig("TICKET");
  many.seed = 2;
  AcquireShape eight = ShortShape();
  eight.locks = 8;
  const ScenarioResult r1 = RunNativeBench(ShortConfig("TICKET"), ShortShape());
  const ScenarioResult r8 = RunNativeBench(many, eight);
  EXPECT_GT(r1.total_ops, 0u);
  EXPECT_GT(r8.total_ops, 0u);
}

TEST(NativeHarness, ZeroDurationRunsFixedOps) {
  ScenarioConfig config = ShortConfig("TTAS");
  config.duration_ms = 0;
  config.ops_per_thread = 500;
  const ScenarioResult result = RunNativeBench(config, ShortShape());
  EXPECT_EQ(result.total_ops, 1000u);
}

TEST(NativeHarness, MeterIntegration) {
  ScenarioConfig config = ShortConfig("MUTEX");
  config.meter = MeterChoice::kModel;
  const ScenarioResult result = RunNativeBench(config, ShortShape());
  EXPECT_EQ(result.meter_name, "model");
  EXPECT_GT(result.energy.seconds, 0.0);
  EXPECT_GT(result.energy.total_joules(), 0.0);
  EXPECT_GT(result.Tpp(), 0.0);
}

// The model's power depends only on which contexts are busy, and the driver
// marks them for both kinds of run, so a 2-thread microbenchmark draws what
// a 2-thread scenario draws, and more than a 1-thread microbenchmark.
// Equal watts agree to rounding, hence the relative tolerance both ways.
TEST(NativeHarness, ModelMeterSeesTheWorkersLikeAScenarioRun) {
  constexpr double kTolerance = 1e-6;
  ScenarioConfig config = ShortConfig("MUTEX");
  config.meter = MeterChoice::kModel;
  const ScenarioResult two = RunNativeBench(config, ShortShape());
  config.threads = 1;
  const ScenarioResult one = RunNativeBench(config, ShortShape());

  ScenarioConfig scenario;
  scenario.lock_name = "MUTEX";
  scenario.threads = 2;
  scenario.ops_per_thread = 2000;
  scenario.meter = MeterChoice::kModel;
  const ScenarioResult kvstore = RunScenarioByName("kvstore/WT", scenario);

  EXPECT_NEAR(two.AvgWatts(), kvstore.AvgWatts(), kTolerance * kvstore.AvgWatts());
  if (Topology::Detect().total_contexts() > 1) {  // the model has a second context
    EXPECT_GT(two.AvgWatts(), one.AvgWatts() * (1 + kTolerance));
  }
}

TEST(NativeHarness, LatencyRecordingCanBeDisabled) {
  ScenarioConfig config = ShortConfig("TTAS");
  config.record_latency = false;
  const ScenarioResult result = RunNativeBench(config, ShortShape());
  EXPECT_EQ(result.op_latency_cycles.count(), 0u);
  EXPECT_GT(result.total_ops, 0u);
}

// --- Dispatch tiers ----------------------------------------------------------

TEST(NativeHarness, ConcreteLocksRunOnTheStaticTier) {
  EXPECT_TRUE(IsStaticallyDispatchable("TAS"));
  const ScenarioResult result = RunNativeBench(ShortConfig("TAS"), ShortShape());
  EXPECT_GT(result.total_ops, 0u);
}

TEST(NativeHarness, AdaptiveFallsBackToTheHandleTier) {
  EXPECT_FALSE(IsStaticallyDispatchable("ADAPTIVE"));
  const ScenarioResult result = RunNativeBench(ShortConfig("ADAPTIVE"), ShortShape());
  EXPECT_GT(result.total_ops, 0u);
  // The handle tier keeps the static tier's one-sample-per-acquire contract.
  EXPECT_EQ(result.op_latency_cycles.count(), result.total_ops);
}

}  // namespace
}  // namespace lockin
