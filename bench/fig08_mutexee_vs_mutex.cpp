// Figure 8: throughput and TPP ratios of MUTEXEE over MUTEX across thread
// counts and critical-section sizes (single lock).
//
// Paper: MUTEXEE >= MUTEX nearly everywhere, with the largest wins (2-6x)
// for critical sections up to ~4000 cycles, where MUTEX pathologically
// sleeps although the queueing time is below the sleep latency. The
// unlock-grace ablation is ablation_mutexee's second table.
#include "bench/bench_common.hpp"
#include "src/sim/workload.hpp"

int main(int argc, char** argv) {
  using namespace lockin;
  const BenchOptions options = BenchOptions::Parse(argc, argv);

  const std::vector<int> thread_axis = {10, 20, 30, 40, 50, 60};
  const std::vector<std::uint64_t> cs_axis = {0, 1000, 2000, 4000, 8000, 16000};

  TextTable tput({"cs\\threads", "10", "20", "30", "40", "50", "60"});
  TextTable tpp({"cs\\threads", "10", "20", "30", "40", "50", "60"});
  for (std::uint64_t cs : cs_axis) {
    std::vector<double> tput_row;
    std::vector<double> tpp_row;
    for (int threads : thread_axis) {
      WorkloadConfig config;
      config.threads = threads;
      config.cs_cycles = cs;
      config.non_cs_cycles = 100;
      config.duration_cycles = options.quick ? 14'000'000 : 28'000'000;
      const WorkloadResult mutex = RunLockWorkload("MUTEX", config);
      const WorkloadResult mutexee = RunLockWorkload("MUTEXEE", config);
      tput_row.push_back(mutex.throughput_per_s > 0
                             ? mutexee.throughput_per_s / mutex.throughput_per_s
                             : 0);
      tpp_row.push_back(mutex.tpp > 0 ? mutexee.tpp / mutex.tpp : 0);
    }
    tput.AddNumericRow(std::to_string(cs), tput_row, 2);
    tpp.AddNumericRow(std::to_string(cs), tpp_row, 2);
  }
  EmitTable(tput, options,
            "Figure 8 (left): MUTEXEE/MUTEX throughput ratio (paper: >1 nearly "
            "everywhere; largest below cs=4000)");
  EmitTable(tpp, options, "Figure 8 (right): MUTEXEE/MUTEX TPP ratio (paper: up to ~6x)");
  return 0;
}
