// Workload-driver tests: determinism, censoring, multi-lock spreading.
#include <gtest/gtest.h>

#include "src/sim/workload.hpp"

namespace lockin {
namespace {

TEST(Workload, DeterministicForSeed) {
  WorkloadConfig config;
  config.threads = 8;
  config.locks = 4;
  config.cs_cycles = 700;
  config.non_cs_cycles = 300;
  config.duration_cycles = 8'000'000;
  config.seed = 7;
  config.randomize_cs = true;
  const WorkloadResult a = RunLockWorkload("MUTEXEE", config);
  const WorkloadResult b = RunLockWorkload("MUTEXEE", config);
  EXPECT_EQ(a.total_acquires, b.total_acquires);
  EXPECT_DOUBLE_EQ(a.average_watts, b.average_watts);
  EXPECT_EQ(a.acquire_latency_cycles.max(), b.acquire_latency_cycles.max());
}

TEST(Workload, SeedChangesRandomizedRuns) {
  WorkloadConfig config;
  config.threads = 8;
  config.locks = 4;
  config.cs_cycles = 700;
  config.non_cs_cycles = 300;
  config.duration_cycles = 8'000'000;
  config.randomize_cs = true;
  config.seed = 1;
  const WorkloadResult a = RunLockWorkload("TICKET", config);
  config.seed = 2;
  const WorkloadResult b = RunLockWorkload("TICKET", config);
  EXPECT_NE(a.total_acquires, b.total_acquires);
}

TEST(Workload, MoreLocksMoreThroughputUnderContention) {
  WorkloadConfig config;
  config.threads = 16;
  config.cs_cycles = 1000;
  config.non_cs_cycles = 100;
  config.duration_cycles = 14'000'000;
  config.locks = 1;
  const double one = RunLockWorkload("TICKET", config).throughput_per_s;
  config.locks = 16;
  const double sixteen = RunLockWorkload("TICKET", config).throughput_per_s;
  EXPECT_GT(sixteen, one * 2);
}

TEST(Workload, CensoredWaitsAppearInTail) {
  // MUTEXEE starves sleepers; censored waits are recorded, so the tail must
  // show waits on the order of the run length.
  WorkloadConfig config;
  config.threads = 20;
  config.cs_cycles = 1000;
  config.non_cs_cycles = 100;
  config.duration_cycles = 14'000'000;
  const WorkloadResult result = RunLockWorkload("MUTEXEE", config);
  EXPECT_GT(result.acquire_latency_cycles.max(), config.duration_cycles / 2);
}

TEST(Workload, EnergyAccountingConsistent) {
  WorkloadConfig config;
  config.threads = 10;
  config.cs_cycles = 500;
  config.non_cs_cycles = 500;
  config.duration_cycles = 14'000'000;
  const WorkloadResult result = RunLockWorkload("TICKET", config);
  EXPECT_NEAR(result.seconds, 0.005, 1e-9);  // 14M cycles at 2.8 GHz
  EXPECT_GT(result.package_joules, 0.0);
  EXPECT_GT(result.dram_joules, 0.0);
  const double watts = (result.package_joules + result.dram_joules) / result.seconds;
  EXPECT_NEAR(watts, result.average_watts, 0.5);
  EXPECT_NEAR(result.tpp, static_cast<double>(result.total_acquires) /
                              (result.package_joules + result.dram_joules),
              1e-6);
}

TEST(Workload, ZeroCsStillProgresses) {
  WorkloadConfig config;
  config.threads = 4;
  config.cs_cycles = 0;
  config.non_cs_cycles = 0;
  config.duration_cycles = 1'000'000;
  const WorkloadResult result = RunLockWorkload("TAS", config);
  EXPECT_GT(result.total_acquires, 1000u);
}

TEST(Workload, SmallTopologyEnvHonored) {
  WorkloadEnv env;
  env.topology = Topology(1, 4, 2);  // the paper's Core-i7: 8 contexts
  WorkloadConfig config;
  config.threads = 16;  // oversubscribed on the desktop
  config.cs_cycles = 1000;
  config.non_cs_cycles = 100;
  config.duration_cycles = 14'000'000;
  const WorkloadResult ticket = RunLockWorkload("TICKET", config, env);
  const WorkloadResult mutexee = RunLockWorkload("MUTEXEE", config, env);
  EXPECT_GT(mutexee.throughput_per_s, ticket.throughput_per_s);
}

}  // namespace
}  // namespace lockin
