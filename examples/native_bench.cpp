// Paper-style lock microbenchmark on *this* machine: the tool a user with a
// real multi-socket box runs to produce Figure-11-style rows from the
// native lock library (throughput via rdtsc; energy via RAPL when the host
// exposes it, the calibrated model otherwise).
//
//   $ ./native_bench [threads] [cs_cycles] [duration_ms]
//
// Each argument must be all decimal digits, with threads in 1..4096 and
// duration_ms at least 1; anything else prints usage and exits 2.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/energy/rapl_meter.hpp"
#include "src/locks/harness.hpp"
#include "src/locks/static_dispatch.hpp"
#include "src/platform/topology.hpp"

namespace {

// The whole argument as a decimal number in [min, max]: digits only.
bool ParseDecimal(const char* text, std::uint64_t min, std::uint64_t max, std::uint64_t* out) {
  if (*text == '\0' || text[std::strspn(text, "0123456789")] != '\0') {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text, nullptr, 10);
  return errno != ERANGE && *out >= min && *out <= max;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lockin;
  std::uint64_t threads = 4;
  std::uint64_t cs = 1000;
  std::uint64_t ms = 200;
  if ((argc > 1 && !ParseDecimal(argv[1], 1, 4096, &threads)) ||
      (argc > 2 && !ParseDecimal(argv[2], 0, UINT64_MAX, &cs)) ||
      (argc > 3 && !ParseDecimal(argv[3], 1, UINT64_MAX, &ms))) {
    std::fprintf(stderr,
                 "usage: %s [threads 1..4096] [cs_cycles] [duration_ms >= 1]\n", argv[0]);
    return 2;
  }

  std::printf("host: %s | RAPL: %s\n", Topology::Detect().ToString().c_str(),
              RaplMeter::Available() ? "yes" : "no (model)");
  std::printf("threads=%llu cs=%llu cycles, %llu ms per lock\n\n",
              (unsigned long long)threads, (unsigned long long)cs, (unsigned long long)ms);

  std::printf("%-10s %-6s %14s %10s %12s %10s %12s\n", "lock", "tier", "tput(acq/s)", "watts",
              "TPP(acq/J)", "p95(cyc)", "p99.99(cyc)");
  for (const std::string& name : RegisteredLockNames()) {
    ScenarioConfig config;
    config.lock_name = name;
    config.threads = static_cast<int>(threads);
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
