// Paper-style lock microbenchmark on *this* machine: the tool a user with a
// real multi-socket box runs to produce Figure-11-style rows from the
// native lock library (throughput via rdtsc; energy via RAPL when the host
// exposes it, the calibrated model otherwise).
//
//   $ ./native_bench [threads] [cs_cycles] [duration_ms]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/energy/rapl_meter.hpp"
#include "src/locks/harness.hpp"
#include "src/locks/static_dispatch.hpp"
#include "src/platform/topology.hpp"

int main(int argc, char** argv) {
  using namespace lockin;
  const int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t cs = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 1000;
  const std::uint64_t ms = argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 200;

  std::printf("host: %s | RAPL: %s\n", Topology::Detect().ToString().c_str(),
              RaplMeter::Available() ? "yes" : "no (model)");
  std::printf("threads=%d cs=%llu cycles, %llu ms per lock\n\n", threads,
              (unsigned long long)cs, (unsigned long long)ms);

  std::printf("%-10s %-6s %14s %10s %12s %10s %12s\n", "lock", "tier", "tput(acq/s)", "watts",
              "TPP(acq/J)", "p95(cyc)", "p99.99(cyc)");
  for (const std::string& name : RegisteredLockNames()) {
    ScenarioConfig config;
    config.lock_name = name;
    config.threads = threads;
    config.duration_ms = ms;
    AcquireShape shape;
    shape.cs_cycles = cs;
    shape.lock_options.spin.yield_after = 512;  // survive oversubscribed hosts
    if (name == "MUTEXEE-TO") {
      // Without a timeout MUTEXEE-TO is byte-for-byte MUTEXEE; give the row
      // its distinguishing behavior (8 ms bounds the sleepers' tail within
      // the default 200 ms run).
      shape.lock_options.mutexee.sleep_timeout_ns = 8'000'000;
    }
    const ScenarioResult r = RunNativeBench(config, shape);
    std::printf("%-10s %-6s %14.0f %10.1f %12.0f %10llu %12llu\n", name.c_str(),
                IsStaticallyDispatchable(name) ? "static" : "handle", r.ops_per_s, r.AvgWatts(),
                r.Tpp(), (unsigned long long)r.op_latency_cycles.P95(),
                (unsigned long long)r.op_latency_cycles.P9999());
  }
  return 0;
}
