// Ablation study of MUTEXEE's design knobs (the paper's design sensitivity
// analysis, section 5.1):
//
//   * spin budget -- "spinning for more than 4000 cycles is crucial for
//     throughput: MUTEXEE with 500 cycles spin behaves similarly to MUTEX";
//   * unlock grace window -- "the 'wait in user space' functionality is
//     crucial for power consumption (and improves throughput): if we remove
//     it, MUTEXEE consumes similar power to MUTEX".
//
// Run at 20 threads on the simulated Xeon, 2000-cycle critical sections.
#include "bench/bench_common.hpp"
#include "src/sim/workload.hpp"

int main(int argc, char** argv) {
  using namespace lockin;
  const BenchOptions options = BenchOptions::Parse(argc, argv);

  WorkloadConfig config;
  config.threads = 20;
  config.cs_cycles = 2000;
  config.non_cs_cycles = 100;
  config.duration_cycles = options.quick ? 14'000'000 : 56'000'000;

  const WorkloadResult mutex = RunLockWorkload("MUTEX", config);

  TextTable budget({"spin_budget_cycles", "tput_Kacq/s", "power_W", "TPP_Kacq/J",
                    "futex_wakes", "vs_MUTEX_tput"});
  for (std::uint64_t spin : {500ULL, 1000ULL, 2000ULL, 4000ULL, 8000ULL, 16000ULL, 32000ULL}) {
    WorkloadEnv env;
    env.lock_options.mutexee.spin_mode_lock_cycles = spin;
    const WorkloadResult r = RunLockWorkload("MUTEXEE", config, env);
    budget.AddRow({std::to_string(spin), FormatDouble(r.throughput_per_s / 1e3, 0),
                   FormatDouble(r.average_watts, 1), FormatDouble(r.TppK(), 1),
                   std::to_string(r.futex_stats.wake_calls),
                   FormatDouble(r.throughput_per_s / mutex.throughput_per_s, 2)});
  }
  budget.AddRow({"(MUTEX)", FormatDouble(mutex.throughput_per_s / 1e3, 0),
                 FormatDouble(mutex.average_watts, 1), FormatDouble(mutex.TppK(), 1),
                 std::to_string(mutex.futex_stats.wake_calls), "1.00"});
  EmitTable(budget, options,
            "Ablation: MUTEXEE spin budget (paper: <=500 cycles behaves like MUTEX; >4000 "
            "crucial for throughput)");

  // Grace matters when sleepers exist and the spinner pool drains: use
  // longer critical sections so waiters exhaust their spin budget.
  WorkloadConfig grace_config = config;
  grace_config.cs_cycles = 10000;
  grace_config.non_cs_cycles = 200;
  grace_config.randomize_cs = true;
  TextTable grace({"grace_window", "tput_Kacq/s", "power_W", "TPP_Kacq/J", "futex_wakes",
                   "wake_skips"});
  for (const bool enabled : {true, false}) {
    WorkloadEnv env;
    env.lock_options.mutexee.enable_unlock_grace = enabled;
    const WorkloadResult r = RunLockWorkload("MUTEXEE", grace_config, env);
    grace.AddRow({enabled ? "on (384 cycles)" : "off",
                  FormatDouble(r.throughput_per_s / 1e3, 0), FormatDouble(r.average_watts, 1),
                  FormatDouble(r.TppK(), 1), std::to_string(r.futex_stats.wake_calls),
                  std::to_string(r.lock_stats.wake_skips)});
  }
  EmitTable(grace, options,
            "Ablation: unlock grace window (paper: removing it brings power back to "
            "MUTEX-like levels; in this simulator arrivals rarely land inside the 384-cycle "
            "window, so the effect is smaller)");

  TextTable adapt({"adaptation", "long_cs_tput_Kacq/s", "long_cs_power_W", "mode_note"});
  for (const bool adaptive : {true, false}) {
    WorkloadConfig long_cs = config;
    long_cs.cs_cycles = 16000;  // long critical sections: mutex mode saves power
    WorkloadEnv env;
    if (!adaptive) {
      // Freeze the lock in spin mode by making the switch impossible.
      env.lock_options.mutexee.futex_ratio_threshold = 2.0;
    }
    const WorkloadResult r = RunLockWorkload("MUTEXEE", long_cs, env);
    adapt.AddRow({adaptive ? "on (mutex mode allowed)" : "off (pinned to spin mode)",
                  FormatDouble(r.throughput_per_s / 1e3, 0), FormatDouble(r.average_watts, 1),
                  adaptive ? "switches when futex ratio >30%" : "never switches"});
  }
  EmitTable(adapt, options,
            "Ablation: spin/mutex mode adaptation on long critical sections (paper: the "
            "modes save power on lengthy critical sections)");
  return 0;
}
