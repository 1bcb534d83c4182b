// Simulated lock workload driver.
//
// Reproduces the paper's microbenchmark shape (sections 5.2): N threads,
// L locks; each thread repeatedly picks a lock (uniformly at random when
// L > 1), acquires it, executes a critical section of `cs_cycles`, releases,
// and executes `non_cs_cycles` of private work. Reported metrics are the
// paper's: throughput (acquires/s), average power (W), TPP (acquires/Joule)
// and the acquire-latency distribution.
#ifndef SRC_SIM_WORKLOAD_HPP_
#define SRC_SIM_WORKLOAD_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/sim_lock.hpp"
#include "src/stats/histogram.hpp"

namespace lockin {

struct WorkloadConfig {
  int threads = 10;
  int locks = 1;
  std::uint64_t cs_cycles = 1000;
  std::uint64_t non_cs_cycles = 100;
  // Simulated duration. 28M cycles = 10 ms at 2.8 GHz; long enough for tens
  // of thousands of handovers per thread at paper-scale critical sections.
  std::uint64_t duration_cycles = 28000000;
  std::uint64_t seed = 1;
  // Blocked (off-CPU) time per iteration after the private work: models
  // I/O or network waits that *release the hardware context*. This is what
  // separates mild oversubscription (SQLite at 16 connections: most
  // connections blocked in I/O) from catastrophic oversubscription (MySQL
  // MEM: every connection runnable).
  std::uint64_t blocked_cycles = 0;
  // Jitter critical sections uniformly in [cs/2, 3cs/2] (0 = fixed size).
  bool randomize_cs = false;
};

struct WorkloadResult {
  std::string lock_name;
  double seconds = 0.0;
  std::uint64_t total_acquires = 0;
  double throughput_per_s = 0.0;  // acquires/second
  double average_watts = 0.0;
  double package_joules = 0.0;
  double dram_joules = 0.0;
  double tpp = 0.0;  // acquires/Joule
  LatencyHistogram acquire_latency_cycles;
  SimLockStats lock_stats;        // aggregated over all locks
  SimFutex::Stats futex_stats;    // aggregated over all locks
  // Engine events executed by the run (the basis of the benchmark's
  // sim.events_per_s.* metrics; also a cheap whole-run determinism
  // fingerprint).
  std::uint64_t engine_events = 0;
  // Share of active context time spent in the futex kernel path vs in the
  // lock's spin-wait loops (the paper's section 6.1 kernel-time metric).
  double kernel_time_share = 0.0;
  double spin_time_share = 0.0;

  double ThroughputM() const { return throughput_per_s / 1e6; }
  double TppK() const { return tpp / 1e3; }
};

// Runs the workload with `lock_name` (see MakeSimLock) on a machine with
// `topology`. Uses the paper's Xeon power/sim parameters unless overridden.
struct WorkloadEnv {
  Topology topology = Topology::PaperXeon();
  PowerParams power = PowerParams::PaperXeon();
  SimParams sim = SimParams::PaperXeon();
  SimLockOptions lock_options;
};

WorkloadResult RunLockWorkload(const std::string& lock_name, const WorkloadConfig& config,
                               const WorkloadEnv& env = {});

// --- Phase-change workloads (bench/fig16_adaptive.cpp) ----------------------
//
// One continuous run whose contention regime changes at phase boundaries:
// the locks (and their adaptation state) persist across phases, which is
// exactly what distinguishes an adaptive runtime from re-tuning per run.

// Per-phase overrides applied to the base WorkloadConfig at the boundary.
struct WorkloadPhase {
  std::uint64_t duration_cycles = 28000000;
  std::uint64_t cs_cycles = 1000;
  std::uint64_t non_cs_cycles = 100;
  std::uint64_t blocked_cycles = 0;
  bool randomize_cs = false;
};

struct PhaseResult {
  std::uint64_t acquires = 0;
  double seconds = 0.0;
  double joules = 0.0;
  double watts = 0.0;
  double throughput_per_s = 0.0;
  double tpp = 0.0;  // acquires/Joule within the phase
};

struct PhasedWorkloadResult {
  std::string lock_name;
  std::vector<PhaseResult> phases;
  // Whole-run totals.
  std::uint64_t total_acquires = 0;
  double seconds = 0.0;
  double joules = 0.0;
  double tpp = 0.0;
  std::uint64_t engine_events = 0;
};

// Runs `phases` back to back with one set of locks (thread count, lock count
// and seed come from `base`; per-phase knobs from each WorkloadPhase).
PhasedWorkloadResult RunPhasedLockWorkload(const std::string& lock_name,
                                           const WorkloadConfig& base,
                                           const std::vector<WorkloadPhase>& phases,
                                           const WorkloadEnv& env = {});

}  // namespace lockin

#endif  // SRC_SIM_WORKLOAD_HPP_
