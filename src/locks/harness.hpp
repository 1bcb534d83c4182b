// Native measurement harness: runs the paper's microbenchmark shape (N
// threads, L locks, C-cycle critical sections) against the *real* lock
// library on the host, measuring throughput with the cycle counter and
// energy through the EnergyMeter stack (RAPL when available, the model
// otherwise). This is the harness a user with a multi-socket machine runs
// to get paper-style numbers on real hardware; the simulator benches in
// bench/ are its calibrated stand-in.
//
// Each acquire/release pair is one op on the shared worker driver
// (src/systems/driver.hpp), which owns the threads, the cache-line-aligned
// per-thread slots, the stop cadence and the timing. Threads are pinned in
// the paper's socket-first order. The op runs on one of two dispatch tiers:
//   * static  -- the op is instantiated per concrete lock type
//                (src/locks/static_dispatch.hpp), so lock()/unlock() inline
//                into the driver's loop with zero indirect calls;
//   * handle  -- the type-erased LockHandle path (two virtual calls per
//                acquire/release pair), used for names without a concrete
//                type (ADAPTIVE). The benchmark's per-layer metrics
//                locks.uncontested_ns.{static,handle}.<lock> time both.
#ifndef SRC_LOCKS_HARNESS_HPP_
#define SRC_LOCKS_HARNESS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "src/energy/energy_meter.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/stats/histogram.hpp"

namespace lockin {

struct NativeBenchConfig {
  std::string lock_name = "MUTEXEE";
  int threads = 2;
  int locks = 1;
  std::uint64_t cs_cycles = 1000;
  std::uint64_t non_cs_cycles = 100;
  // Wall-clock run length. The paper uses 10 s x 11 repetitions; tests and
  // examples use much shorter runs.
  std::uint64_t duration_ms = 100;
  std::uint64_t seed = 1;
  bool record_latency = true;     // per-acquire rdtsc latency histogram
  LockBuildOptions lock_options;  // pause kind, yield threshold, budgets
};

struct NativeBenchResult {
  std::string lock_name;
  double seconds = 0;
  std::uint64_t total_acquires = 0;
  double throughput_per_s = 0;
  EnergySample energy;            // zero when no meter was supplied
  double tpp = 0;                 // acquires/Joule (0 without a meter)
  bool used_static_dispatch = false;  // which tier the measured loop ran on
  LatencyHistogram acquire_latency_cycles;
};

// Runs the workload on the static tier when the name has a concrete type
// and on the handle tier otherwise. `meter` may be null (throughput only).
// Unknown lock names raise std::invalid_argument (the registry's throwing
// contract via MakeLockOrThrow).
NativeBenchResult RunNativeBench(const NativeBenchConfig& config, EnergyMeter* meter = nullptr);

}  // namespace lockin

#endif  // SRC_LOCKS_HARNESS_HPP_
