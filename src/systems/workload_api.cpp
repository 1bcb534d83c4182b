#include "src/systems/workload_api.hpp"

#include <stdexcept>
#include <utility>

#include "src/analysis/lockdep.hpp"
#include "src/platform/cycles.hpp"
#include "src/platform/failpoint.hpp"
#include "src/systems/driver.hpp"
#include "src/systems/scenarios/scenario_defs.hpp"

namespace lockin {
namespace {

// One operation with op counting and optional batched latency recording
// wrapped around it.
inline void DoOneOp(ScenarioWorkload& workload, WorkerSlot& slot, bool record) {
  (void)FailpointFired(FailpointId::kScenarioOp);  // delay-only chaos site
  if (record) {
    const std::uint64_t before = ReadCycles();
    workload.Op(slot.ctx);
    slot.RecordLatency(ReadCycles() - before);
  } else {
    workload.Op(slot.ctx);
  }
  ++slot.ctx.op_index;
}

}  // namespace

double ScenarioResult::MetricOr(const std::string& name, double fallback) const {
  for (const ScenarioMetric& metric : metrics) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  return fallback;
}

ScenarioResult RunScenario(ScenarioWorkload& workload, const ScenarioConfig& config,
                           const std::string& scenario_name) {
  const std::vector<std::string> counter_names = workload.CounterNames();
  if (counter_names.size() > ScenarioWorkload::kMaxCounters) {
    throw std::invalid_argument("scenario declares more than kMaxCounters counters: " +
                                scenario_name);
  }

  // FailSafe: arm the requested failpoint profile for the whole run (setup
  // included), seeded from the run seed so fire patterns are reproducible.
  // No-op (and leaves any env-armed profile in place) when the spec is empty.
  ScopedFailpoints failpoint_scope(config.failpoints, config.seed);

  // LockScope: the driver thread's trace ring (tid = threads), which holds
  // the setup/run phase markers.
  TraceBuffer* driver_trace = nullptr;
  if (config.trace) {
    driver_trace = TraceSession::Instance().NewBuffer(static_cast<std::uint16_t>(config.threads),
                                                      config.trace_buffer_events);
  }
  ScopedTraceSink driver_sink(driver_trace);

  // LockLint: arm the lock-order detector for the whole run (setup included
  // -- preload-time inversions are inversions too). MakeLockFactory enables
  // the trace hook on every lock when config.lockdep is set, so every
  // acquire/release feeds the acquisition graph.
  ScopedLockdep lockdep_scope(config.lockdep || LockdepIsEnabled());

  // Setup runs untraced: a preload's lock events (10,000 keys for
  // kvstore/WT) would fill the ring and drop the markers that follow.
  // Lockdep still sees them, since TraceEmit feeds it before the sink.
  TraceEmit(TraceEventKind::kPhaseBegin, 0);
  {
    const ScopedTraceSink untraced_setup(nullptr);
    workload.Setup(config);
  }
  TraceEmit(TraceEventKind::kPhaseEnd, 0);

  std::vector<WorkerSlot> slots;
  slots.reserve(static_cast<std::size_t>(config.threads));
  for (int t = 0; t < config.threads; ++t) {
    // Same per-thread seeding the pre-API cache driver used, so seeded runs
    // (and fig13's native rows) carry over unchanged.
    slots.emplace_back(config.seed + static_cast<std::uint64_t>(t) * 7 + 1);
  }

  DriverRun run = RunDriver(config, scenario_name, slots, /*pin_threads=*/false,
                            [&workload, record = config.record_latency](WorkerSlot& slot) {
                              DoOneOp(workload, slot, record);
                            });
  ScenarioResult result = CollectResult(config, scenario_name, slots, std::move(run));
  std::vector<std::uint64_t> counter_sums(counter_names.size(), 0);
  for (const WorkerSlot& slot : slots) {
    for (std::size_t c = 0; c < counter_sums.size(); ++c) {
      counter_sums[c] += slot.counters[c];
    }
  }
  result.metrics.reserve(counter_names.size());
  for (std::size_t c = 0; c < counter_names.size(); ++c) {
    result.metrics.push_back({counter_names[c], static_cast<double>(counter_sums[c])});
  }
  workload.AddSystemMetrics(&result.metrics);
  return result;
}

// --- Registry ----------------------------------------------------------------

ScenarioRegistry& ScenarioRegistry::Instance() {
  // Built-ins are registered through explicit per-system functions (declared
  // in scenarios/scenario_defs.hpp) instead of static registrar objects:
  // lockin is a static library, and the linker would drop a scenario
  // translation unit nothing references, silently emptying the registry.
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    RegisterKvStoreScenarios(*r);
    RegisterCacheScenarios(*r);
    RegisterNosqlScenarios(*r);
    RegisterGraphScenarios(*r);
    RegisterMiniSqlScenarios(*r);
    RegisterWalStoreScenarios(*r);
    RegisterCowListScenarios(*r);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::Register(ScenarioInfo info, Factory factory) {
  if (Find(info.name) != nullptr) {
    throw std::invalid_argument("duplicate scenario name: " + info.name);
  }
  entries_.push_back({std::move(info), std::move(factory)});
}

std::vector<ScenarioInfo> ScenarioRegistry::List() const {
  std::vector<ScenarioInfo> infos;
  infos.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    infos.push_back(entry.info);
  }
  return infos;
}

const ScenarioRegistry::Entry* ScenarioRegistry::FindEntry(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

const ScenarioInfo* ScenarioRegistry::Find(const std::string& name) const {
  const Entry* entry = FindEntry(name);
  return entry != nullptr ? &entry->info : nullptr;
}

std::vector<ScenarioInfo> RegisteredScenarios() { return ScenarioRegistry::Instance().List(); }

std::unique_ptr<ScenarioWorkload> MakeScenarioOrThrow(const std::string& name) {
  const ScenarioRegistry::Entry* entry = ScenarioRegistry::Instance().FindEntry(name);
  if (entry == nullptr) {
    std::string message = "unknown scenario: '" + name + "'; available scenarios:";
    for (const ScenarioInfo& info : RegisteredScenarios()) {
      message += ' ';
      message += info.name;
    }
    throw std::invalid_argument(message);
  }
  return entry->factory();
}

ScenarioResult RunScenarioByName(const std::string& name, const ScenarioConfig& config) {
  const std::unique_ptr<ScenarioWorkload> workload = MakeScenarioOrThrow(name);
  return RunScenario(*workload, config, name);
}

std::uint64_t SkewedKey(Xoshiro256* rng, std::uint64_t space) {
  std::uint64_t lo = 0;
  std::uint64_t hi = space;
  for (int level = 0; level < 4 && hi - lo > 16; ++level) {
    if (rng->NextDouble() < 0.8) {
      hi = lo + (hi - lo) / 5;
    } else {
      lo = lo + (hi - lo) / 5;
    }
  }
  return lo + rng->NextBelow(hi - lo + 1);
}

}  // namespace lockin
