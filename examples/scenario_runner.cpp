// Unified scenario CLI: run any registered scenario under any registered
// lock through the shared native driver (src/systems/workload_api.hpp).
//
//   $ ./scenario_runner --list
//   $ ./scenario_runner --scenario kvstore/WT --lock MUTEXEE --threads 8
//   $ ./scenario_runner --scenario cache/set-heavy --lock all --json
//   $ ./scenario_runner --all --quick
//
// Flags:
//   --list            print the scenario table (name, system, description)
//   --scenario NAME   scenario to run (repeatable via --all)
//   --all             run every registered scenario
//   --lock NAME       lock algorithm, or "all" for every registered lock
//   --threads N       worker threads (default 4)
//   --ops N           operations per thread (default 40000; --quick: 8000)
//   --seconds S       time-bounded run instead of fixed ops
//   --seed N          workload seed (default 1)
//   --key-space N     override the scenario's default key space
//   --json            machine-readable output (one JSON object per run)
//   --quick           short run (CI smoke)
//
// LockScope observability flags:
//   --trace FILE      capture lock/futex/epoch events and write a Chrome
//                     trace-event JSON (load in ui.perfetto.dev); single
//                     scenario x lock only
//   --metrics         print the process MetricsRegistry as flat JSON after
//                     the runs
//   --lockdep         arm the LockLint lock-order detector for the runs and
//                     print any reported violations (exit 1 if any)
//   --meter MODE      energy meter: auto (RAPL else model; default),
//                     model, off; a metered --trace run also gets a watts
//                     counter track
//
// FailSafe robustness flags:
//   --failpoints SPEC arm named failpoints for the runs (grammar in
//                     src/platform/failpoint.hpp, e.g. futex/wait=p0.01)
//   --chaos           arm the default chaos profile (DefaultChaosSpec)
//   --watchdog-ms N   stall watchdog: a worker making no progress for N ms
//                     dumps held locks + failpoints and aborts (exit 3)
//
// SIGINT/SIGTERM stop the runs cleanly: partial results, traces and metrics
// are still written, and the process exits with 128 + signal.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/locks/lock_registry.hpp"
#include "src/obs/export.hpp"
#include "src/obs/metrics.hpp"
#include "src/platform/cycles.hpp"
#include "src/platform/failpoint.hpp"
#include "src/stats/table.hpp"
#include "src/systems/workload_api.hpp"

namespace {

using namespace lockin;

// Signal-to-stop wiring: the handler only stores to atomics; the driver's
// workers poll g_stop via ScenarioConfig::external_stop.
std::atomic<bool> g_stop{false};
std::atomic<int> g_signal{0};

void HandleStopSignal(int sig) {
  g_stop.store(true, std::memory_order_relaxed);
  g_signal.store(sig, std::memory_order_relaxed);
}

struct RunnerOptions {
  bool list = false;
  bool all = false;
  bool json = false;
  bool quick = false;
  std::string scenario;
  std::string lock = "MUTEX";
  int threads = 4;
  int ops = 0;  // 0 = default (40000, or 8000 with --quick)
  double seconds = 0;
  std::uint64_t seed = 1;
  std::uint64_t key_space = 0;
  std::string trace_path;
  bool metrics = false;
  bool lockdep = false;
  std::string meter = "auto";
  std::string failpoints;
  bool chaos = false;
  long watchdog_ms = 0;
};

void PrintUsage(const char* prog, std::FILE* out) {
  std::fprintf(out,
               "usage: %s --list | --scenario NAME | --all [options]\n"
               "  --lock NAME|all  --threads N  --ops N  --seconds S  --seed N\n"
               "  --key-space N  --json  --quick\n"
               "  --trace FILE  --metrics  --lockdep  --meter auto|model|off\n"
               "  --failpoints SPEC  --chaos  --watchdog-ms N\n",
               prog);
}

[[noreturn]] void Fail(const char* prog, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
  PrintUsage(prog, stderr);
  std::exit(2);
}

RunnerOptions ParseArgs(int argc, char** argv) {
  RunnerOptions options;
  auto value_of = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      Fail(argv[0], std::string(flag) + " requires a value");
    }
    return argv[++i];
  };
  auto int_of = [&](int& i, const char* flag, long min, long max) -> long {
    const char* value = value_of(i, flag);
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || parsed < min || parsed > max) {
      Fail(argv[0], std::string("invalid ") + flag + " value: " + value);
    }
    return parsed;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      options.list = true;
    } else if (std::strcmp(argv[i], "--all") == 0) {
      options.all = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      options.json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--scenario") == 0) {
      options.scenario = value_of(i, "--scenario");
    } else if (std::strcmp(argv[i], "--lock") == 0) {
      options.lock = value_of(i, "--lock");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      options.threads = static_cast<int>(int_of(i, "--threads", 1, 4096));
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      options.ops = static_cast<int>(int_of(i, "--ops", 1, 1000000000));
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      const char* value = value_of(i, "--seconds");
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || options.seconds <= 0) {
        Fail(argv[0], std::string("invalid --seconds value: ") + value);
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      // Full uint64 range: seeds are often derived from timestamps/hashes.
      // Decimal digits only: strtoull alone would accept leading spaces
      // and a sign, wrapping "-1" to 2^64 - 1.
      const char* value = value_of(i, "--seed");
      errno = 0;
      options.seed = std::strtoull(value, nullptr, 10);
      if (*value == '\0' || value[std::strspn(value, "0123456789")] != '\0' ||
          errno == ERANGE) {
        Fail(argv[0], std::string("invalid --seed value: ") + value);
      }
    } else if (std::strcmp(argv[i], "--key-space") == 0) {
      options.key_space = static_cast<std::uint64_t>(int_of(i, "--key-space", 1, 1000000000));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      options.trace_path = value_of(i, "--trace");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      options.metrics = true;
    } else if (std::strcmp(argv[i], "--lockdep") == 0) {
      options.lockdep = true;
    } else if (std::strcmp(argv[i], "--meter") == 0) {
      options.meter = value_of(i, "--meter");
      if (options.meter != "auto" && options.meter != "model" && options.meter != "off") {
        Fail(argv[0], "invalid --meter value: " + options.meter + " (auto|model|off)");
      }
    } else if (std::strcmp(argv[i], "--failpoints") == 0) {
      options.failpoints = value_of(i, "--failpoints");
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      options.chaos = true;
    } else if (std::strcmp(argv[i], "--watchdog-ms") == 0) {
      options.watchdog_ms = int_of(i, "--watchdog-ms", 1, 3600000);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage(argv[0], stdout);
      std::exit(0);
    } else {
      Fail(argv[0], std::string("unrecognized argument: ") + argv[i]);
    }
  }
  return options;
}

void ListScenarios(bool json) {
  TextTable table({"scenario", "system", "description"});
  for (const ScenarioInfo& info : RegisteredScenarios()) {
    table.AddRow({info.name, info.system, info.description});
  }
  if (json) {
    table.PrintJson(std::cout);
  } else {
    table.Print(std::cout);
  }
}

void EmitJson(const ScenarioResult& r, bool record_latency) {
  std::printf("{\"scenario\": \"%s\", \"lock\": \"%s\", \"threads\": %d, "
              "\"seconds\": %.6f, \"total_ops\": %llu, \"ops_per_s\": %.1f",
              r.scenario.c_str(), r.lock_name.c_str(), r.threads, r.seconds,
              static_cast<unsigned long long>(r.total_ops), r.ops_per_s);
  if (record_latency) {
    // Cycles stay the JSON unit (bit-stable across hosts whose TSC
    // calibration drifts); the human-readable table converts to ns.
    std::printf(", \"op_p50_cycles\": %llu, \"op_p99_cycles\": %llu, \"op_max_cycles\": %llu",
                static_cast<unsigned long long>(r.op_latency_cycles.P50()),
                static_cast<unsigned long long>(r.op_latency_cycles.P99()),
                static_cast<unsigned long long>(r.op_latency_cycles.max()));
  }
  if (!r.meter_name.empty()) {
    // Dedicated fields, not scenario metrics: the metrics below print with
    // %.0f (they are counters) and sub-Joule values would truncate to 0.
    std::printf(", \"meter\": \"%s\", \"joules\": %.6f, \"avg_watts\": %.3f, \"tpp\": %.3f",
                r.meter_name.c_str(), r.energy.total_joules(), r.AvgWatts(), r.Tpp());
  }
  for (const ScenarioMetric& metric : r.metrics) {
    std::printf(", \"%s\": %.0f", metric.name.c_str(), metric.value);
  }
  std::printf("}\n");
}

std::string MetricsToString(const ScenarioResult& r) {
  std::string out;
  for (const ScenarioMetric& metric : r.metrics) {
    if (!out.empty()) {
      out += " ";
    }
    out += metric.name + "=" + FormatDouble(metric.value, 0);
  }
  return out;
}

// Writes the collected trace rings as a Chrome trace-event file. Shared by
// the normal end-of-run path and the watchdog/signal flush paths.
bool WriteTraceFile(const std::string& path, const std::string& process_name) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  ChromeTraceOptions trace_options;
  trace_options.cycles_per_us = CyclesPerNs() * 1000.0;
  trace_options.process_name = process_name;
  TraceSession& session = TraceSession::Instance();
  const std::vector<TraceEvent> events = session.Collect();
  WriteChromeTrace(out, events, trace_options);
  std::fprintf(stderr, "trace: %zu events -> %s (%llu dropped)\n", events.size(), path.c_str(),
               static_cast<unsigned long long>(session.dropped()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const RunnerOptions options = ParseArgs(argc, argv);
  if (options.list) {
    ListScenarios(options.json);
    return 0;
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  if (options.all && !options.scenario.empty()) {
    Fail(argv[0], "--all and --scenario are mutually exclusive");
  }
  std::vector<std::string> scenario_names;
  if (options.all) {
    for (const ScenarioInfo& info : RegisteredScenarios()) {
      scenario_names.push_back(info.name);
    }
  } else if (!options.scenario.empty()) {
    if (ScenarioRegistry::Instance().Find(options.scenario) == nullptr) {
      std::fprintf(stderr, "%s: unknown scenario: %s (try --list)\n", argv[0],
                   options.scenario.c_str());
      return 2;
    }
    scenario_names.push_back(options.scenario);
  } else {
    Fail(argv[0], "one of --list, --scenario NAME or --all is required");
  }

  std::vector<std::string> lock_names;
  if (options.lock == "all") {
    lock_names = RegisteredLockNames();
  } else {
    try {
      MakeLockOrThrow(options.lock);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 2;
    }
    lock_names.push_back(options.lock);
  }

  if (options.ops > 0 && options.seconds > 0) {
    Fail(argv[0], "--ops and --seconds are mutually exclusive");
  }
  ScenarioConfig config;
  config.threads = options.threads;
  config.ops_per_thread = options.ops > 0 ? options.ops : (options.quick ? 8000 : 40000);
  if (options.seconds > 0) {
    // Floor at 1 ms: truncating a sub-millisecond request to 0 would
    // silently fall back to fixed-op mode.
    const double ms = options.seconds * 1000.0;
    config.duration_ms = ms < 1.0 ? 1 : static_cast<std::uint64_t>(ms);
  }
  config.seed = options.seed;
  config.key_space = options.key_space;
  config.trace = !options.trace_path.empty();
  config.lockdep = options.lockdep;
  config.meter = options.meter == "off"     ? MeterChoice::kOff
                 : options.meter == "model" ? MeterChoice::kModel
                                            : MeterChoice::kAuto;

  if (options.chaos && !options.failpoints.empty()) {
    Fail(argv[0], "--chaos and --failpoints are mutually exclusive");
  }
  config.failpoints = options.chaos ? DefaultChaosSpec() : options.failpoints;
  if (!config.failpoints.empty()) {
    // Validate the spec up front: a typo should fail with the parser's
    // site-enumerating message before any scenario runs.
    try {
      ScopedFailpoints probe(config.failpoints, config.seed);
    } catch (const std::exception& error) {
      Fail(argv[0], error.what());
    }
  }
  config.watchdog_ms = static_cast<std::uint32_t>(options.watchdog_ms);
  config.external_stop = &g_stop;

  if (config.trace && scenario_names.size() * lock_names.size() != 1) {
    Fail(argv[0], "--trace captures one run; pick a single --scenario and --lock");
  }

  // Before an aborting watchdog kills the process, flush whatever
  // observability outputs were requested (best-effort: workers may still be
  // appending to their trace rings while we collect).
  const std::string trace_process_name =
      "scenario_runner " + scenario_names.front() + " / " + lock_names.front();
  config.on_stall = [&options, &trace_process_name] {
    if (!options.trace_path.empty()) {
      WriteTraceFile(options.trace_path, trace_process_name);
    }
    if (options.metrics) {
      MetricsRegistry::Instance().WriteJson(std::cout);
    }
    std::fflush(nullptr);
  };

  // Table latencies in nanoseconds via the calibrated cycle counter
  // (src/platform/cycles.hpp); --json keeps raw cycles.
  TextTable table({"scenario", "lock", "threads", "Mops/s", "p50_ns", "p99_ns", "joules",
                   "TPP(op/J)", "metrics"});
  for (const std::string& scenario : scenario_names) {
    if (g_stop.load(std::memory_order_relaxed)) {
      break;  // interrupted: flush what completed, skip the rest
    }
    for (const std::string& lock : lock_names) {
      if (g_stop.load(std::memory_order_relaxed)) {
        break;
      }
      config.lock_name = lock;
      ScenarioResult result;
      try {
        result = RunScenarioByName(scenario, config);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s: %s under %s failed: %s\n", argv[0], scenario.c_str(),
                     lock.c_str(), error.what());
        return 1;
      }
      if (options.json) {
        EmitJson(result, config.record_latency);
      } else {
        table.AddRow({scenario, lock, std::to_string(result.threads),
                      FormatDouble(result.MopsPerS(), 3),
                      FormatDouble(CyclesToNs(result.op_latency_cycles.P50()), 0),
                      FormatDouble(CyclesToNs(result.op_latency_cycles.P99()), 0),
                      FormatDouble(result.energy.total_joules(), 3),
                      FormatDouble(result.Tpp(), 0), MetricsToString(result)});
      }
    }
  }
  if (!options.json) {
    table.Print(std::cout);
  }

  if (config.trace) {
    if (!WriteTraceFile(options.trace_path, trace_process_name)) {
      std::fprintf(stderr, "%s: cannot open trace file: %s\n", argv[0],
                   options.trace_path.c_str());
      return 1;
    }
  }
  if (options.metrics) {
    MetricsRegistry::Instance().WriteJson(std::cout);
  }
  if (options.lockdep) {
    const std::vector<LockdepReport> reports = LockdepReports();
    const LockdepStats stats = LockdepGetStats();
    std::fprintf(stderr, "lockdep: %llu events, %llu edges, %zu violation(s)\n",
                 static_cast<unsigned long long>(stats.events),
                 static_cast<unsigned long long>(stats.edges), reports.size());
    for (const LockdepReport& report : reports) {
      std::fprintf(stderr, "lockdep: %s\n", report.Describe().c_str());
    }
    if (!reports.empty()) {
      return 1;
    }
  }
  const int sig = g_signal.load(std::memory_order_relaxed);
  if (sig != 0) {
    std::fprintf(stderr, "%s: interrupted by signal %d; partial results flushed\n", argv[0], sig);
    return 128 + sig;
  }
  return 0;
}
