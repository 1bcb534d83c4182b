// Table 2: single-threaded (uncontested) lock throughput and TPP.
//
// Paper (Macq/s | Kacq/Joule, 100-cycle critical sections):
//   MUTEX 11.88|174.31  TAS 16.88|248.14  TTAS 16.98|249.41
//   TICKET 16.97|249.24 MCS 12.04|176.72  MUTEXEE 13.32|195.48
// Shape: locks perform inversely to their complexity; with no contention
// the throughput and TPP trends are identical.
//
// Prints the simulated reproduction and, below it, the *native* throughput
// of the real lock library on this host: the lock microbenchmark on one
// thread with the paper's shape, on the static tier (lock cost without
// dispatch), without a meter.
#include "bench/bench_common.hpp"
#include "src/locks/harness.hpp"
#include "src/sim/workload.hpp"

namespace lockin {
namespace {

double NativeUncontestedMacqPerS(const std::string& name) {
  ScenarioConfig config;
  config.lock_name = name;
  config.threads = 1;
  config.ops_per_thread = 200000;
  config.record_latency = false;
  config.meter = MeterChoice::kOff;
  AcquireShape shape;
  shape.cs_cycles = 100;  // the paper's 100-cycle critical section
  shape.non_cs_cycles = 0;
  return RunNativeBench(config, shape).MopsPerS();
}

}  // namespace
}  // namespace lockin

int main(int argc, char** argv) {
  using namespace lockin;
  const BenchOptions options = BenchOptions::Parse(argc, argv);

  const struct {
    const char* name;
    double paper_tput;
    double paper_tpp;
  } locks[] = {{"MUTEX", 11.88, 174.31}, {"TAS", 16.88, 248.14},  {"TTAS", 16.98, 249.41},
               {"TICKET", 16.97, 249.24}, {"MCS", 12.04, 176.72}, {"MUTEXEE", 13.32, 195.48}};

  TextTable sim({"lock", "tput_Macq/s", "paper", "TPP_Kacq/J", "paper"});
  for (const auto& lock : locks) {
    WorkloadConfig config;
    config.threads = 1;
    config.cs_cycles = 100;
    config.non_cs_cycles = 0;
    config.duration_cycles = options.quick ? 14'000'000 : 28'000'000;
    const WorkloadResult result = RunLockWorkload(lock.name, config);
    sim.AddRow({lock.name, FormatDouble(result.ThroughputM(), 2),
                FormatDouble(lock.paper_tput, 2), FormatDouble(result.TppK(), 1),
                FormatDouble(lock.paper_tpp, 1)});
  }
  EmitTable(sim, options, "Table 2 (simulated Xeon): uncontested throughput and TPP");

  TextTable native({"lock", "native_tput_Macq/s"});
  for (const auto& lock : locks) {
    native.AddNumericRow(lock.name, {NativeUncontestedMacqPerS(lock.name)}, 2);
  }
  native.AddNumericRow("PTHREAD", {NativeUncontestedMacqPerS("PTHREAD")}, 2);
  EmitTable(native, options,
            "Table 2 (native, this host): uncontested throughput of the real lock "
            "library on the static tier (absolute values depend on the host clock)");
  return 0;
}
