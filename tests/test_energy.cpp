// Power model and energy meter tests. The power model is the calibrated
// substitute for RAPL, so these tests pin it to the paper's reported
// numbers (section 3.1) and orderings (sections 4.1-4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/energy/model_meter.hpp"
#include "src/energy/power_model.hpp"
#include "src/energy/rapl_meter.hpp"

namespace lockin {
namespace {

PowerModel XeonModel() { return PowerModel(Topology::PaperXeon(), PowerParams::PaperXeon()); }

std::vector<ActivityState> States(int n, ActivityState s, int total = 40) {
  std::vector<ActivityState> states(static_cast<std::size_t>(total), ActivityState::kInactive);
  for (int i = 0; i < n; ++i) {
    states[static_cast<std::size_t>(i)] = s;
  }
  return states;
}

TEST(PowerModel, IdlePowerMatchesPaper) {
  // "the total idle power is 55.5 Watts" (section 3.1).
  const PowerModel model = XeonModel();
  EXPECT_NEAR(model.TotalWatts(States(0, ActivityState::kWorking)), 55.5, 0.1);
}

TEST(PowerModel, FirstCoreActivationCost) {
  // "it costs ... 13.6 Watts in package power on the ... max VF settings"
  const PowerModel model = XeonModel();
  const std::vector<VfSetting> vf(40, VfSetting::kMax);
  const double idle = model.ComponentWatts(States(0, ActivityState::kWorking), vf).package_w;
  const double one = model.ComponentWatts(States(1, ActivityState::kWorking), vf).package_w;
  EXPECT_NEAR(one - idle, 13.6, 0.1);
}

// Hosts often number cores sparsely (0-4 and 8-12 on a ten-core Xeon); the
// model keys cores as socket * cores_per_socket + core, so the ids must
// come out dense.
TEST(PowerModel, SparseCoreIdsMatchTheDenseLayout) {
  std::vector<CpuInfo> cpus;
  for (int socket = 0; socket < 2; ++socket) {
    for (const int core : {0, 1, 2, 3, 4, 8, 9, 10, 11, 12}) {
      cpus.push_back(CpuInfo{static_cast<int>(cpus.size()), socket, core, 0});
    }
  }
  const Topology sparse = Topology::FromCpus(cpus);
  ASSERT_EQ(sparse.cores_per_socket(), 10);
  for (const CpuInfo& cpu : sparse.cpus()) {
    EXPECT_LT(cpu.core, sparse.cores_per_socket()) << cpu.os_cpu;
  }
  const PowerParams params = PowerParams::PaperXeon();
  const std::vector<ActivityState> busy = States(20, ActivityState::kCritical, 20);
  EXPECT_DOUBLE_EQ(PowerModel(sparse, params).ComponentWatts(busy, {}).total(),
                   PowerModel(Topology(2, 10, 1), params).ComponentWatts(busy, {}).total());
}

TEST(PowerModel, SecondCoreCheaperThanFirst) {
  // "The second core costs 2.3 and 5.6 Watts" (min/max VF).
  const PowerModel model = XeonModel();
  const std::vector<VfSetting> vf(40, VfSetting::kMax);
  const double one = model.ComponentWatts(States(1, ActivityState::kWorking), vf).package_w;
  const double two = model.ComponentWatts(States(2, ActivityState::kWorking), vf).package_w;
  EXPECT_NEAR(two - one, 5.6, 0.1);
}

TEST(PowerModel, MinVfCheaperThanMax) {
  const PowerModel model = XeonModel();
  const auto states = States(20, ActivityState::kWorking);
  EXPECT_LT(model.TotalWatts(states, VfSetting::kMin),
            model.TotalWatts(states, VfSetting::kMax));
}

TEST(PowerModel, MonotonicInThreadCount) {
  const PowerModel model = XeonModel();
  double prev = 0;
  for (int threads = 0; threads <= 40; ++threads) {
    const double watts = model.TotalWatts(States(threads, ActivityState::kWorking));
    EXPECT_GE(watts, prev) << threads;
    prev = watts;
  }
}

TEST(PowerModel, KneeAtFullCoreOccupancy) {
  // After 20 threads (one per core), extra hyper-threads add less power
  // than extra cores did -- the knee visible in Figure 2.
  const PowerModel model = XeonModel();
  const double w19 = model.TotalWatts(States(19, ActivityState::kWorking));
  const double w20 = model.TotalWatts(States(20, ActivityState::kWorking));
  const double w21 = model.TotalWatts(States(21, ActivityState::kWorking));
  const double core_step = w20 - w19;
  const double smt_step = w21 - w20;
  EXPECT_LT(smt_step, core_step);
}

TEST(PowerModel, UncoreStepWhenSecondSocketWakes) {
  // Thread 11 in pinning order lands on socket 1: its activation includes
  // the uncore cost, so the step exceeds the per-core cost alone.
  const PowerModel model = XeonModel();
  const double w10 = model.TotalWatts(States(10, ActivityState::kWorking));
  const double w11 = model.TotalWatts(States(11, ActivityState::kWorking));
  const double w9_to_10 =
      w10 - model.TotalWatts(States(9, ActivityState::kWorking));
  EXPECT_GT(w11 - w10, w9_to_10);
}

TEST(PowerModel, PausingTechniqueOrdering) {
  // Figure 3/4: pause > local > global > mbar in power while spinning.
  const PowerModel model = XeonModel();
  const int n = 30;
  const double pause = model.TotalWatts(States(n, ActivityState::kSpinPause));
  const double local = model.TotalWatts(States(n, ActivityState::kSpinLocal));
  const double global = model.TotalWatts(States(n, ActivityState::kSpinGlobal));
  const double mbar = model.TotalWatts(States(n, ActivityState::kSpinMbar));
  EXPECT_GT(pause, local);
  EXPECT_GT(local, global);
  EXPECT_GT(global, mbar);
}

TEST(PowerModel, SleepingNearIdle) {
  const PowerModel model = XeonModel();
  const double idle = model.TotalWatts(States(0, ActivityState::kWorking));
  const double sleeping = model.TotalWatts(States(40, ActivityState::kSleeping));
  EXPECT_LT(sleeping, idle + 6.0);
  EXPECT_GE(sleeping, idle);
}

TEST(PowerModel, MwaitWellBelowSpinning) {
  // Figure 5: monitor/mwait reduces busy-wait power by ~1.5x.
  const PowerModel model = XeonModel();
  const double spin = model.TotalWatts(States(40, ActivityState::kSpinLocal));
  const double mwait = model.TotalWatts(States(40, ActivityState::kMwait));
  const double ratio = (spin) / (mwait);
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 1.8);
}

TEST(PowerModel, DvfsSpinWellBelowMaxVfSpin) {
  // Figure 5: VF-min spinning consumes up to ~1.7x less than VF-max.
  const PowerModel model = XeonModel();
  const double max_vf = model.TotalWatts(States(40, ActivityState::kSpinLocal));
  const double min_vf = model.TotalWatts(States(40, ActivityState::kSpinDvfsMin));
  EXPECT_GT(max_vf / min_vf, 1.25);
}

TEST(PowerModel, HyperThreadsShareTheHigherVf) {
  // Section 4.2: lowering one hyper-thread's VF has no effect unless the
  // sibling lowers too. Context 0 and 20 share core 0 of socket 0.
  const PowerModel model = XeonModel();
  std::vector<ActivityState> states(40, ActivityState::kInactive);
  states[0] = ActivityState::kWorking;       // sibling A at max VF
  states[20] = ActivityState::kSpinDvfsMin;  // sibling B requests min VF
  std::vector<VfSetting> vf(40, VfSetting::kMax);
  const double mixed = model.ComponentWatts(states, vf).package_w;

  // Same sibling B spinning at max VF for comparison: power must be equal
  // because the core stays at the higher setting.
  states[20] = ActivityState::kSpinLocal;
  const double both_max = model.ComponentWatts(states, vf).package_w;
  EXPECT_NEAR(mixed, both_max, 1e-9);
}

TEST(PowerModel, DramScalesOnlyWithWorkingContexts) {
  const PowerModel model = XeonModel();
  const std::vector<VfSetting> vf(40, VfSetting::kMax);
  const auto working = model.ComponentWatts(States(20, ActivityState::kWorking), vf);
  const auto spinning = model.ComponentWatts(States(20, ActivityState::kSpinLocal), vf);
  EXPECT_GT(working.dram_w, spinning.dram_w);
  EXPECT_NEAR(spinning.dram_w, 25.0, 0.1);  // DRAM background only
}

TEST(PowerModel, MaxPowerInPaperBallpark) {
  // Paper: 206 W max total. The additive model lands within ~25%.
  const PowerModel model = XeonModel();
  const double max_watts = model.TotalWatts(States(40, ActivityState::kWorking));
  EXPECT_GT(max_watts, 170.0);
  EXPECT_LT(max_watts, 260.0);
}

TEST(EnergySample, TotalsWattsAndTpp) {
  EnergySample sample;
  sample.package_joules = 8.0;
  sample.dram_joules = 2.0;
  sample.seconds = 2.0;
  EXPECT_DOUBLE_EQ(sample.total_joules(), 10.0);
  EXPECT_DOUBLE_EQ(sample.average_watts(), 5.0);
  EXPECT_DOUBLE_EQ(sample.Tpp(1000), 100.0);
}

// The model meter is one formula: ComponentWatts of the busy contexts in
// kCritical (capped at the topology's 8 contexts here), for the elapsed time.
TEST(ModelMeterTest, ChargesComponentWattsOfBusyContexts) {
  const PowerModel model(Topology(1, 4, 2), PowerParams::PaperXeon());
  for (const int busy : {0, 1, 3, 8, 12}) {
    ModelMeter meter(model, busy);
    meter.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const EnergySample sample = meter.Stop();
    ASSERT_GT(sample.seconds, 0.0) << busy;
    const PowerModel::Breakdown expected =
        model.ComponentWatts(States(std::min(busy, 8), ActivityState::kCritical, 8), {});
    EXPECT_NEAR(sample.package_joules / sample.seconds, expected.package_w, 1e-9) << busy;
    EXPECT_NEAR(sample.dram_joules / sample.seconds, expected.dram_w, 1e-9) << busy;
  }
}

// The energy sampler reads Stop() while the run goes on.
TEST(ModelMeterTest, StopIsARepeatableNondecreasingRead) {
  ModelMeter meter(PowerModel(Topology(1, 4, 2), PowerParams::PaperXeon()), 2);
  meter.Start();
  EnergySample previous = meter.Stop();
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const EnergySample sample = meter.Stop();
    EXPECT_GE(sample.seconds, previous.seconds);
    EXPECT_GE(sample.total_joules(), previous.total_joules());
    previous = sample;
  }
  EXPECT_GT(previous.total_joules(), 0.0);
}

TEST(RaplMeterTest, AvailabilityProbeDoesNotCrash) {
  const bool available = RaplMeter::Available();
  if (!available) {
    GTEST_SKIP() << "no RAPL on this host (expected in containers)";
  }
  RaplMeter meter;
  meter.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const EnergySample sample = meter.Stop();
  EXPECT_GE(sample.package_joules, 0.0);
}

TEST(MakeDefaultMeterTest, FallsBackToModel) {
  auto meter = MakeDefaultMeter(PowerModel(Topology(1, 4, 2), PowerParams::PaperXeon()), 1);
  ASSERT_NE(meter, nullptr);
  // Either backend is acceptable; it must produce a sane sample.
  meter->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const EnergySample sample = meter->Stop();
  EXPECT_GT(sample.seconds, 0.0);
}

}  // namespace
}  // namespace lockin
