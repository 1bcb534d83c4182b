// Unified native scenario API: one shared multi-threaded workload driver
// for every mini-system in src/systems, every registered lock, every mix.
//
// The paper's core experiment swaps lock algorithms under six unmodified
// systems ("we do not modify anything else other than the pthread locks",
// section 6). This layer is that experiment as an API: each mini-system
// adapts to the ScenarioWorkload interface (Setup once, Op per thread,
// counters), the ScenarioRegistry names the interesting system x mix points
// ("kvstore/WT", "cache/set-heavy", "minisql/neworder", ...), and one
// shared driver (src/systems/driver.hpp, which the native lock harness
// runs on too: cache-line-aligned worker slots, batched latency recording,
// stop-flag cadence, zero per-op allocation in the driver itself) runs any
// scenario under any lock name, including ADAPTIVE. Consumers:
// examples/scenario_runner (CLI; `--all --json` gives every scenario's
// ops/s, latency and TPP), fig13_15_systems' native section, and the
// benchmark's kv-contended and cache-read workloads (perfbench/). New
// systems plug in by registering a scenario; they inherit the driver, the
// CLI and the tests.
//
// (The adapter interface is the "SystemWorkload" of the scenario layer but
// is named ScenarioWorkload: lockin::SystemWorkload already names the
// simulator's Table 3 profiles in src/sim/sysmodel.hpp, and several benches
// include both layers.)
#ifndef SRC_SYSTEMS_WORKLOAD_API_HPP_
#define SRC_SYSTEMS_WORKLOAD_API_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/energy/energy_meter.hpp"
#include "src/locks/lock_api.hpp"
#include "src/obs/trace.hpp"
#include "src/platform/rng.hpp"
#include "src/stats/histogram.hpp"
#include "src/systems/common.hpp"

namespace lockin {

// Which energy meter the scenario driver attaches to a run.
enum class MeterChoice {
  kAuto,   // RAPL when readable, the calibrated model otherwise (default)
  kModel,  // force the model meter (deterministic availability, e.g. tests)
  kOff,    // no meter; result.energy stays zero
};

// One scenario run: which lock, how many threads, how long. Each scenario
// runs its registered operation mix (see the registry descriptions).
struct ScenarioConfig {
  std::string lock_name = "MUTEX";
  int threads = 4;

  // Fixed-op mode (the default): every thread performs exactly
  // ops_per_thread operations, so a seeded single-threaded run is
  // deterministic (the registry tests rely on this). When duration_ms > 0
  // the run is time-bounded instead: workers loop until the stop flag,
  // polled every kStopCheckEvery ops (src/systems/driver.hpp; one shared
  // cache line kept out of the per-op path), and ops_per_thread is ignored.
  int ops_per_thread = 40000;
  std::uint64_t duration_ms = 0;

  // Key space / data-set size; 0 keeps the scenario's registered default.
  std::uint64_t key_space = 0;

  // Shard count of the system under test (src/systems/sharded.hpp). 0
  // keeps the scenario's registered default (1 for the single-lock paper
  // shapes, 16 for cache, 32 for graph, 8 for nosql/hash). Scenarios whose
  // system under test is not shardable (rwkv, cowlist) ignore it.
  std::uint32_t shards = 0;

  std::uint64_t seed = 1;
  bool record_latency = true;  // batched per-op rdtsc histogram

  // --- LockScope observability ----------------------------------------------
  // trace: give every worker a per-thread event ring in the process
  // TraceSession and enable the trace hook on the scenario's locks, so lock
  // waits/holds, futex sleeps and adaptive epoch switches land in the
  // exported timeline. Off by default: untraced runs emit nothing.
  bool trace = false;
  std::uint32_t trace_buffer_events = TraceBuffer::kDefaultCapacity;
  // lockdep: enable the LockLint lock-order detector for the run and the
  // trace hook on the scenario's locks (the acquire/release event source;
  // see src/analysis/lockdep.hpp). Independent of `trace`: lockdep needs
  // the locks' events but not the per-thread rings.
  bool lockdep = false;
  // Energy accounting for the run phase, built by the driver
  // (RunDriverPhase). kAuto follows the meter fallback chain (RAPL ->
  // model); the model charges the run's worker contexts as busy.
  // result.energy/Tpp() report the outcome. A metered, traced run also
  // samples the meter every EnergySampler::kIntervalMs onto a Perfetto
  // counter track of watts.
  MeterChoice meter = MeterChoice::kAuto;

  // --- FailSafe robustness --------------------------------------------------
  // failpoints: a failpoint SPEC (src/platform/failpoint.hpp) armed for the
  // whole run -- setup included -- and disarmed after, seeded with `seed`.
  // Empty leaves whatever global/env arming is in effect untouched.
  std::string failpoints;
  // watchdog_ms > 0 starts a stall watchdog over the run phase: a worker
  // whose progress counter does not move for watchdog_ms gets reported to
  // stderr (with the lockdep held-lock snapshot and failpoint status), and
  // the process exits with code 3 -- failing the run fast instead of
  // hanging ctest/CI.
  std::uint32_t watchdog_ms = 0;
  // Runner hook invoked on a detected stall before the exit: flush partial
  // traces/metrics so the evidence survives the _Exit.
  std::function<void()> on_stall;
  // External cancellation (scenario_runner's SIGINT handler): polled by
  // fixed-op workers at the kStopCheckEvery cadence and by the duration
  // pacer, ending the run early but cleanly. Null = never.
  const std::atomic<bool>* external_stop = nullptr;

  // The lock factory every scenario builds its system with (the paper's
  // "swap the pthread locks" point). Throws std::invalid_argument for
  // unknown names, at Setup time. Traced and lockdep runs enable every
  // lock's trace hook (LockHandle::EnableTrace).
  LockFactory MakeLockFactory() const {
    return [factory = NamedLockFactory(lock_name), traced = trace || lockdep] {
      std::unique_ptr<LockHandle> handle = factory();
      if (traced) {
        handle->EnableTrace();
      }
      return handle;
    };
  }
};

struct ScenarioMetric {
  std::string name;
  double value = 0;
};

struct ScenarioResult {
  std::string scenario;
  std::string lock_name;
  int threads = 0;
  double seconds = 0;
  std::uint64_t total_ops = 0;
  double ops_per_s = 0;
  LatencyHistogram op_latency_cycles;  // empty unless config.record_latency
  // Summed per-thread counters (in CounterNames() order) followed by the
  // scenario's system-level metrics (sizes, evictions, WAL records, ...).
  std::vector<ScenarioMetric> metrics;

  // Ops the driver abandoned. Always 0: every op runs to completion. Kept
  // because the benchmark counts it as failed ops.
  std::uint64_t ops_shed = 0;

  // Energy over the run phase (setup excluded). Zero when meter == kOff.
  // Kept out of `metrics` on purpose: the metrics vector is the
  // deterministic, seed-stable part of the result, and energy is wall-clock
  // dependent by nature.
  EnergySample energy;
  std::string meter_name;  // "rapl", "model", "" when off

  double MopsPerS() const { return ops_per_s / 1e6; }
  // Throughput-per-power (ops/Joule), the paper's efficiency metric; 0
  // without energy data.
  double Tpp() const { return energy.Tpp(static_cast<double>(total_ops)); }
  double AvgWatts() const { return energy.average_watts(); }
  // Named metric lookup; `fallback` when the scenario does not report it.
  double MetricOr(const std::string& name, double fallback = 0) const;
};

// Per-thread state the driver hands to ScenarioWorkload::Op. Lives inside a
// cache-line-aligned worker slot: nothing here is written by another thread.
struct ThreadContext {
  explicit ThreadContext(std::uint64_t rng_seed) : rng(rng_seed) {}

  int thread_index = 0;
  std::uint64_t op_index = 0;  // ops this thread has completed so far
  Xoshiro256 rng;
  // One slot per CounterNames() entry; summed across threads after the run.
  std::uint64_t* counters = nullptr;
  // Scratch buffers Op implementations reuse so key/value formatting stops
  // allocating once the strings' capacity is warm.
  std::string key;
  std::string value;
};

// What a mini-system implements to become runnable by the shared driver.
class ScenarioWorkload {
 public:
  // Upper bound on CounterNames().size(): the driver keeps the counters
  // inline in the per-thread slot so incrementing one never allocates or
  // shares a cache line.
  static constexpr std::size_t kMaxCounters = 8;

  virtual ~ScenarioWorkload() = default;

  // Builds the system (locks via config.MakeLockFactory()) and preloads it.
  // Called once, single-threaded, before the workers start; must leave the
  // workload ready for config.threads concurrent Op callers.
  virtual void Setup(const ScenarioConfig& config) = 0;

  // Names of the per-thread counters, at most kMaxCounters. The order fixes
  // the ThreadContext::counters indices.
  virtual std::vector<std::string> CounterNames() const { return {}; }

  // One operation, called concurrently from every worker thread. The driver
  // wraps it with op counting and (optionally) latency recording.
  virtual void Op(ThreadContext& ctx) = 0;

  // Post-run, single-threaded: appends system-level metrics after the
  // summed thread counters.
  virtual void AddSystemMetrics(std::vector<ScenarioMetric>* out) const { (void)out; }
};

// Runs `workload` under `config` on the shared driver. `scenario_name` is
// carried into the result for labeling only.
ScenarioResult RunScenario(ScenarioWorkload& workload, const ScenarioConfig& config,
                           const std::string& scenario_name = "");

// --- Scenario registry -------------------------------------------------------

struct ScenarioInfo {
  std::string name;         // "kvstore/WT"
  std::string system;       // mini-system / paper Table 3 target
  std::string description;  // one line, shown by scenario_runner --list
};

class ScenarioRegistry {
 public:
  using Factory = std::function<std::unique_ptr<ScenarioWorkload>()>;

  // The process-wide registry, populated with every built-in scenario on
  // first use. Registration is not thread-safe; register at startup.
  static ScenarioRegistry& Instance();

  void Register(ScenarioInfo info, Factory factory);

  std::vector<ScenarioInfo> List() const;  // registration order
  const ScenarioInfo* Find(const std::string& name) const;  // nullptr unknown
  std::unique_ptr<ScenarioWorkload> Make(const std::string& name) const;  // nullptr unknown

 private:
  struct Entry {
    ScenarioInfo info;
    Factory factory;
  };
  std::vector<Entry> entries_;
};

// Conveniences over Instance(), mirroring the lock registry's unknown-name
// contract (src/locks/lock_registry.hpp): MakeScenario returns nullptr for
// unknown names, MakeScenarioOrThrow raises std::invalid_argument naming
// the offender.
std::vector<ScenarioInfo> RegisteredScenarios();
std::unique_ptr<ScenarioWorkload> MakeScenario(const std::string& name);
std::unique_ptr<ScenarioWorkload> MakeScenarioOrThrow(const std::string& name);

// MakeScenarioOrThrow + RunScenario in one call.
ScenarioResult RunScenarioByName(const std::string& name, const ScenarioConfig& config);

// Approximate Zipf key pick shared by the scenario mixes: 80% of accesses
// hit 20% of the key space, recursively.
std::uint64_t SkewedKey(Xoshiro256* rng, std::uint64_t space);

}  // namespace lockin

#endif  // SRC_SYSTEMS_WORKLOAD_API_HPP_
