// Section 5.1 table: MUTEX vs MUTEXEE vs MUTEXEE with a 4 ms timeout, at 20
// threads with 2000-cycle critical sections.
//
// Paper (Xeon):
//   lock             throughput   TPP          max latency
//   MUTEX            317 Kacq/s   4.0 Kacq/J     2.0 Mcycles
//   MUTEXEE          855 Kacq/s  10.9 Kacq/J   206.5 Mcycles
//   MUTEXEE timeout  474 Kacq/s   6.5 Kacq/J    12.0 Mcycles
#include "bench/bench_common.hpp"
#include "src/sim/workload.hpp"

int main(int argc, char** argv) {
  using namespace lockin;
  const BenchOptions options = BenchOptions::Parse(argc, argv);

  WorkloadConfig config;
  config.threads = 20;
  config.cs_cycles = 2000;
  config.non_cs_cycles = 100;
  config.duration_cycles = options.quick ? 28'000'000 : 140'000'000;

  struct Row {
    const char* name;
    WorkloadResult result;
    double paper_tput;
    double paper_tpp;
    double paper_max;
  };
  Row rows[] = {
      {"MUTEX", RunLockWorkload("MUTEX", config), 317, 4.0, 2.0},
      {"MUTEXEE", RunLockWorkload("MUTEXEE", config), 855, 10.9, 206.5},
      {"MUTEXEE timeout", RunLockWorkload("MUTEXEE-TO", config), 474, 6.5, 12.0},
  };

  TextTable table({"lock", "tput_Kacq/s", "paper", "TPP_Kacq/J", "paper", "max_lat_Mcyc",
                   "paper"});
  for (const Row& row : rows) {
    table.AddRow({row.name, FormatDouble(row.result.throughput_per_s / 1e3, 0),
                  FormatDouble(row.paper_tput, 0), FormatDouble(row.result.TppK(), 1),
                  FormatDouble(row.paper_tpp, 1),
                  FormatDouble(static_cast<double>(row.result.acquire_latency_cycles.max()) / 1e6,
                               1),
                  FormatDouble(row.paper_max, 1)});
  }
  EmitTable(table, options,
            "Section 5.1 table: 20 threads, 2000-cycle critical sections (ordering: "
            "MUTEXEE > timeout > MUTEX in throughput/TPP; timeout bounds the max latency)");
  return 0;
}
