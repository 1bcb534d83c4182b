// Adaptive lock runtime demo: one mixed scenario, every lock.
//
// Runs the native measurement harness through three contention regimes --
// uncontended, short critical sections under contention, long critical
// sections under contention -- for a set of static locks and the ADAPTIVE
// runtime, metering energy with the calibrated model. Prints per-regime
// throughput-per-Joule and the summed scenario score, plus the backend the
// adaptive lock settled on in each regime.
//
// The point of the exercise (paper, section 7): each static policy has a
// regime it loses, so a fixed choice leaves energy or throughput on the
// table somewhere. The adaptive runtime re-decides per lock site and per
// epoch instead.
//
//   $ ./adaptive_demo
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/adaptive/adaptive_lock.hpp"
#include "src/locks/harness.hpp"
#include "src/platform/cycles.hpp"

using namespace lockin;

namespace {

struct Regime {
  const char* name;
  int threads;
  std::uint64_t cs_cycles;
  std::uint64_t non_cs_cycles;
};

ScenarioResult RunRegime(const Regime& regime, const std::string& lock) {
  ScenarioConfig config;
  config.lock_name = lock;
  config.threads = regime.threads;
  config.duration_ms = 200;
  config.record_latency = false;
  config.meter = MeterChoice::kModel;
  AcquireShape shape;
  shape.cs_cycles = regime.cs_cycles;
  shape.non_cs_cycles = regime.non_cs_cycles;
  // Keep spin backends live on hosts with fewer cores than threads.
  shape.lock_options.spin.yield_after = 256;
  return RunNativeBench(config, shape);
}

}  // namespace

int main() {
  const std::vector<Regime> regimes = {
      {"uncontended", 1, 200, 400},
      {"short-cs", 4, 600, 200},
      {"long-cs", 4, 30000, 500},
  };
  const std::vector<std::string> locks = {"TTAS", "MUTEX", "MUTEXEE", "ADAPTIVE"};

  std::printf("%-10s", "lock");
  for (const Regime& regime : regimes) {
    std::printf("  %14s", regime.name);
  }
  std::printf("  %12s\n", "sum KTPP");
  std::printf("%s\n", std::string(10 + regimes.size() * 16 + 14, '-').c_str());

  double best_static_sum = 0.0;
  double adaptive_sum = 0.0;
  for (const std::string& lock : locks) {
    std::printf("%-10s", lock.c_str());
    double sum = 0.0;
    for (const Regime& regime : regimes) {
      const double ktpp = RunRegime(regime, lock).Tpp() / 1e3;
      std::printf("  %9.1f KTPP", ktpp);
      sum += ktpp;
    }
    std::printf("  %12.1f\n", sum);
    if (lock == "ADAPTIVE") {
      adaptive_sum = sum;
    } else if (sum > best_static_sum) {
      best_static_sum = sum;
    }
  }

  // Show what the runtime actually decided per regime.
  std::printf("\nadaptive backend per regime:");
  for (const Regime& regime : regimes) {
    AdaptiveLockConfig config;
    config.epoch_acquires = 64;
    config.spin.yield_after = 256;
    AdaptiveLock lock(config);
    std::vector<std::thread> threads;
    std::atomic<bool> stop{false};
    for (int t = 0; t < regime.threads; ++t) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          lock.lock();
          SpinForCycles(regime.cs_cycles);
          lock.unlock();
          SpinForCycles(regime.non_cs_cycles);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    for (auto& t : threads) {
      t.join();
    }
    std::printf("  %s=%s(switches=%llu)", regime.name, lock.backend_name(),
                (unsigned long long)lock.backend_switches());
  }
  std::printf("\n\n");

  if (adaptive_sum >= best_static_sum) {
    std::printf("ADAPTIVE wins the mixed scenario: %.1f vs best static %.1f KTPP\n",
                adaptive_sum, best_static_sum);
  } else {
    std::printf("ADAPTIVE within %.1f%% of the best static (%.1f vs %.1f KTPP) -- "
                "without knowing the regime in advance\n",
                100.0 * (1.0 - adaptive_sum / best_static_sum), adaptive_sum,
                best_static_sum);
  }
  return 0;
}
