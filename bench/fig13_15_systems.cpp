// Figures 13-15: the six systems with TICKET and MUTEXEE, normalized to
// MUTEX: throughput (Fig. 13), energy efficiency (TPP, Fig. 14) and tail
// latency (Fig. 15). Each of the 17 configurations is simulated once and
// feeds all three tables.
//
// Paper, Fig. 13: swapping MUTEX out raises throughput by 31% on average;
// TICKET collapses on the oversubscribed MySQL (0.01x/0.16x) and SQLite
// 64-CON (0.25x) configurations; Kyoto gains the most (up to 1.85x).
// Fig. 14: 33% average TPP improvement, driven by the throughput gains
// (POLY); SQLite additionally saves 15-18% power with MUTEXEE.
// Fig. 15 (99th percentile of request latency): better throughput usually
// means a lower tail; the exceptions are MUTEXEE's unfairness on HamsterDB
// RD (~19-22x) and TICKET's oversubscribed configurations. One simulated
// request maps to a single lock acquisition here, so the percentile that
// corresponds to the paper's request-level p99 sits deeper in the acquire
// distribution: the table reports the p99.9 ratio and the worst-case ratio.
#include "bench/bench_common.hpp"
#include "src/sim/sysmodel.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {
namespace {

// Native Memcached-shape scale scenario: the same striped cache the
// simulated Memcached rows model, run on this host per LRU mode through the
// unified scenario driver (the registered "cache/*" scenarios keep the
// pre-API shard/capacity/key-space defaults, and latency recording stays
// off, so these rows are comparable across the refactor). The global-LRU
// rows are the paper-shape contention (every SET crosses one lock); the
// per-shard rows are the segmented-LRU scale mode.
void EmitNativeCacheSection(const BenchOptions& options) {
  struct Row {
    const char* scenario;
    const char* mode;
    const char* mix;
  };
  const Row rows[] = {
      {"cache/set-heavy", "global", "SET-heavy"},
      {"cache/get-heavy", "global", "GET-heavy"},
      {"cache/set-heavy-seglru", "per_shard", "SET-heavy"},
      {"cache/get-heavy-seglru", "per_shard", "GET-heavy"},
  };
  TextTable table({"lru_mode", "mix", "Mops/s", "evictions"});
  for (const Row& row : rows) {
    ScenarioConfig config;
    // Pinned explicitly (not via ScenarioConfig defaults): the title and the
    // pre-refactor comparability of these rows assume MUTEX at 4 threads.
    config.lock_name = "MUTEX";
    config.threads = 4;
    config.ops_per_thread = options.quick ? 20000 : 60000;
    config.record_latency = false;
    const ScenarioResult r = RunScenarioByName(row.scenario, config);
    table.AddRow({row.mode, row.mix, FormatDouble(r.MopsPerS(), 3),
                  FormatDouble(r.MetricOr("evictions"), 0)});
  }
  EmitTable(table, options,
            "Figure 13 (native, this host): MemCache by LRU mode (4 threads, MUTEX; global = "
            "paper-shape SET contention, per_shard = segmented-LRU scale scenario)");
}

}  // namespace
}  // namespace lockin

int main(int argc, char** argv) {
  using namespace lockin;
  const BenchOptions options = BenchOptions::Parse(argc, argv);

  TextTable throughput({"system", "config", "TICKET", "paper", "MUTEXEE", "paper"});
  TextTable tpp({"system", "config", "TICKET", "paper", "MUTEXEE", "paper"});
  TextTable tail({"system", "config", "TICKET_p99.9", "MUTEXEE_p99.9", "MUTEXEE_worst",
                  "paper_p99(T)", "paper_p99(M)"});
  double throughput_ticket_sum = 0;
  double throughput_mutexee_sum = 0;
  double tpp_ticket_sum = 0;
  double tpp_mutexee_sum = 0;
  int count = 0;
  for (SystemWorkload spec : PaperSystemWorkloads()) {
    if (options.quick) {
      spec.workload.duration_cycles = 42'000'000;
    }
    const SystemResult r = RunSystemWorkload(spec);
    throughput.AddRow({spec.system, spec.config, FormatDouble(r.ThroughputRatioTicket(), 2),
                       FormatDouble(spec.paper_throughput_ticket, 2),
                       FormatDouble(r.ThroughputRatioMutexee(), 2),
                       FormatDouble(spec.paper_throughput_mutexee, 2)});
    tpp.AddRow({spec.system, spec.config, FormatDouble(r.TppRatioTicket(), 2),
                FormatDouble(spec.paper_tpp_ticket, 2), FormatDouble(r.TppRatioMutexee(), 2),
                FormatDouble(spec.paper_tpp_mutexee, 2)});
    throughput_ticket_sum += r.ThroughputRatioTicket();
    throughput_mutexee_sum += r.ThroughputRatioMutexee();
    tpp_ticket_sum += r.TppRatioTicket();
    tpp_mutexee_sum += r.TppRatioMutexee();
    ++count;
    // Figure 15 plots 11 of the 17 configurations.
    if (spec.paper_tail_ticket != 0 || spec.paper_tail_mutexee != 0) {
      tail.AddRow({spec.system, spec.config, FormatDouble(r.TailRatioTicket(), 2),
                   FormatDouble(r.TailRatioMutexee(), 2), FormatDouble(r.MaxTailRatioMutexee(), 1),
                   FormatDouble(spec.paper_tail_ticket, 2),
                   FormatDouble(spec.paper_tail_mutexee, 2)});
    }
  }
  throughput.AddRow({"Avg", "", FormatDouble(throughput_ticket_sum / count, 2), "1.06",
                     FormatDouble(throughput_mutexee_sum / count, 2), "1.26"});
  tpp.AddRow({"Avg", "", FormatDouble(tpp_ticket_sum / count, 2), "1.05",
              FormatDouble(tpp_mutexee_sum / count, 2), "1.28"});
  EmitTable(throughput, options, "Figure 13: normalized throughput of the six systems");
  EmitTable(tpp, options, "Figure 14: normalized energy efficiency (TPP) of the six systems");
  EmitTable(tail, options,
            "Figure 15: normalized tail latency (paper: HamsterDB RD ~19-22x with "
            "MUTEXEE; SQLite tails do not grow despite lock-level unfairness)");
  EmitNativeCacheSection(options);
  return 0;
}
