// Domain scenario: driving the simulated Xeon directly -- sweep one lock
// workload across thread counts on the paper's 40-hyper-thread testbed and
// print throughput, power and TPP, like a row of the paper's Figure 11.
//
//   $ ./simulate_xeon [lock] [cs_cycles]
//   $ ./simulate_xeon MUTEXEE 2000
//
// An unknown lock name or a cs_cycles that is not all decimal digits prints
// usage and exits 2.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/sim/workload.hpp"

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

int Usage(const char* prog, const std::string& message) {
  std::fprintf(stderr, "%s: %s\nusage: %s [lock] [cs_cycles]\n", prog, message.c_str(), prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lockin;
  const std::string lock = argc > 1 ? argv[1] : "MUTEXEE";
  std::uint64_t cs = 1000;
  if (argc > 2 && !ParseDecimal(argv[2], 0, UINT64_MAX, &cs)) {
    return Usage(argv[0], std::string("invalid cs_cycles: ") + argv[2]);
  }

  std::printf("simulated 2-socket Xeon (40 hyper-threads), lock=%s, critical section=%llu "
              "cycles\n\n",
              lock.c_str(), (unsigned long long)cs);
  std::printf("%8s %14s %10s %14s %12s %12s\n", "threads", "tput(Macq/s)", "power(W)",
              "TPP(Kacq/J)", "p95(cyc)", "p99.99(cyc)");
  for (int threads : {1, 4, 10, 20, 30, 40, 50, 60}) {
    WorkloadConfig config;
    config.threads = threads;
    config.cs_cycles = cs;
    config.non_cs_cycles = 100;
    config.duration_cycles = 28'000'000;
    WorkloadResult r;
    try {
      r = RunLockWorkload(lock, config);
    } catch (const std::invalid_argument& error) {
      return Usage(argv[0], error.what());
    }
    std::printf("%8d %14.3f %10.1f %14.2f %12llu %12llu\n", threads, r.ThroughputM(),
                r.average_watts, r.TppK(),
                (unsigned long long)r.acquire_latency_cycles.P95(),
                (unsigned long long)r.acquire_latency_cycles.P9999());
  }
  return 0;
}
