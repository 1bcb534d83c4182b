// MUTEXEE tuner tests: the derived configuration must respect the paper's
// structural constraints regardless of host noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "src/locks/tuner.hpp"

namespace lockin {
namespace {

TEST(Tuner, ProducesBoundedConfig) {
  const TunerReport report = RunMutexeeTuner();
  // Spin budget: never below 4000 cycles ("spinning for more than 4000
  // cycles is crucial for throughput") and never absurd.
  EXPECT_GE(report.config.spin_mode_lock_cycles, 4000u);
  EXPECT_LE(report.config.spin_mode_lock_cycles, 65536u);
  // Grace window: bounded around the coherence latency.
  EXPECT_GE(report.config.spin_mode_grace_cycles, 128u);
  EXPECT_LE(report.config.spin_mode_grace_cycles, 2048u);
  // Mutex mode budgets are strictly smaller than spin mode.
  EXPECT_LT(report.config.mutex_mode_lock_cycles, report.config.spin_mode_lock_cycles);
  EXPECT_LT(report.config.mutex_mode_grace_cycles,
            report.config.spin_mode_grace_cycles + 1);
}

TEST(Tuner, MeasuresNonZeroLatencies) {
  const TunerReport report = RunMutexeeTuner();
  EXPECT_GT(report.futex_wake_call_cycles, 0u);
  EXPECT_GT(report.futex_turnaround_cycles, 0u);
  EXPECT_GT(report.line_transfer_cycles, 0u);
  // The budgets follow from the measured latencies as documented in
  // tuner.hpp. (Turnaround vs wake call has no fixed order: when waker and
  // wakee run on different CPUs the woken thread can be running before
  // FUTEX_WAKE returns.)
  const auto scaled = [](double factor, std::uint64_t cycles) {
    return static_cast<std::uint64_t>(factor * static_cast<double>(cycles));
  };
  EXPECT_EQ(report.config.spin_mode_lock_cycles,
            std::clamp<std::uint64_t>(scaled(1.15, report.futex_turnaround_cycles), 4000,
                                      65536));
  EXPECT_EQ(report.config.spin_mode_grace_cycles,
            std::clamp<std::uint64_t>(scaled(1.4, report.line_transfer_cycles), 128, 2048));
}

TEST(Tuner, ReportIsPrintable) {
  const TunerReport report = RunMutexeeTuner();
  const std::string text = report.ToString();
  EXPECT_NE(text.find("spin_mode_lock_cycles"), std::string::npos);
  EXPECT_NE(text.find("futex turnaround"), std::string::npos);
}

}  // namespace
}  // namespace lockin
