// System workload models for the paper's section 6 experiments
// (Figures 13, 14, 15; system configurations from Table 3).
//
// The paper swaps pthread locks inside six real systems. What determines
// the outcome is each system's *synchronization profile*: how many locks,
// how long the critical sections are, how much private work separates
// acquisitions, and whether the system oversubscribes threads to hardware
// contexts. Each SystemWorkload below encodes that profile (derived from
// the paper's own characterization in section 6) and is run through the
// simulator with MUTEX / TICKET / MUTEXEE, like the paper's Figure 13-15
// matrix. The companion *native* mini-systems live in src/systems.
#ifndef SRC_SIM_SYSMODEL_HPP_
#define SRC_SIM_SYSMODEL_HPP_

#include <string>
#include <vector>

#include "src/sim/workload.hpp"

namespace lockin {

struct SystemWorkload {
  std::string system;   // "HamsterDB", "Kyoto", ...
  std::string config;   // "WT", "CACHE", "64 CON", ...
  WorkloadConfig workload;
  // Paper-reported normalized values (vs MUTEX), printed beside the
  // simulated ratios in fig13_15_systems; 0 when the paper does not report
  // the cell.
  double paper_throughput_ticket = 0;
  double paper_throughput_mutexee = 0;
  double paper_tpp_ticket = 0;
  double paper_tpp_mutexee = 0;
  double paper_tail_ticket = 0;
  double paper_tail_mutexee = 0;
};

// The 17 system configurations of Table 3 / Figures 13-14. The tail-latency
// figure (15) covers the 11 configurations the paper plots.
std::vector<SystemWorkload> PaperSystemWorkloads();

struct SystemResult {
  SystemWorkload spec;
  WorkloadResult mutex_result;
  WorkloadResult ticket_result;
  WorkloadResult mutexee_result;

  double ThroughputRatioTicket() const {
    return Ratio(ticket_result.throughput_per_s, mutex_result.throughput_per_s);
  }
  double ThroughputRatioMutexee() const {
    return Ratio(mutexee_result.throughput_per_s, mutex_result.throughput_per_s);
  }
  double TppRatioTicket() const { return Ratio(ticket_result.tpp, mutex_result.tpp); }
  double TppRatioMutexee() const { return Ratio(mutexee_result.tpp, mutex_result.tpp); }
  // The paper's Figure 15 reports the 99th percentile of *request* latency;
  // one request crosses several lock acquisitions, so the acquire-level
  // percentile that corresponds to it sits deeper in the tail: a request of
  // k independent acquisitions is below its p99 only when all k are below
  // the acquisitions' 0.99^(1/k) quantile, about 1 - 0.01/k. We use the
  // 99.9th acquire percentile, the k = 10 point.
  double TailRatioTicket() const {
    return Ratio(static_cast<double>(ticket_result.acquire_latency_cycles.P999()),
                 static_cast<double>(mutex_result.acquire_latency_cycles.P999()));
  }
  double TailRatioMutexee() const {
    return Ratio(static_cast<double>(mutexee_result.acquire_latency_cycles.P999()),
                 static_cast<double>(mutex_result.acquire_latency_cycles.P999()));
  }
  // Worst-case acquire latency ratio: exposes MUTEXEE's starved sleepers
  // even when they are too few to move a fixed percentile.
  double MaxTailRatioMutexee() const {
    return Ratio(static_cast<double>(mutexee_result.acquire_latency_cycles.max()),
                 static_cast<double>(mutex_result.acquire_latency_cycles.max()));
  }

 private:
  static double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }
};

// Runs one system configuration under the three locks of Figures 13-15.
SystemResult RunSystemWorkload(const SystemWorkload& spec);

}  // namespace lockin

#endif  // SRC_SIM_SYSMODEL_HPP_
