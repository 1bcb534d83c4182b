// The shared native worker driver: one thread per cache-line-aligned worker
// slot, released together and stopped after a fixed op count or a
// wall-clock duration, with the run phase's energy meter, energy sampler,
// stall watchdog and per-worker trace rings around it.
//
// The measured loop is a template over the per-op body, so each caller's
// body inlines into it:
//   * RunScenario (workload_api.cpp) runs ScenarioWorkload::Op behind a
//     failpoint site and optional latency recording;
//   * RunNativeBench (src/locks/harness.cpp) runs one acquire/release per
//     op, instantiated per concrete lock type so lock()/unlock() inline (the
//     static tier), or over LockHandle (the handle tier).
// Both take a ScenarioConfig and report a ScenarioResult whose common
// fields CollectResult fills.
#ifndef SRC_SYSTEMS_DRIVER_HPP_
#define SRC_SYSTEMS_DRIVER_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/energy/energy_meter.hpp"
#include "src/obs/sampler.hpp"
#include "src/platform/cacheline.hpp"
#include "src/platform/spin_hint.hpp"
#include "src/stats/histogram.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {

// Per-worker hot state, one slot per thread. Regression note: the lock
// harness once kept its per-thread counters in a bare
// std::vector<std::uint64_t>, which packs 8 threads' counters into one cache
// line; the false sharing serialized "uncontested" multi-lock runs on
// coherence traffic. Everything a worker writes per op lives in its own
// slot, each slot starting on a cache-line boundary and spanning whole
// lines, so the measured loop shares no written line across threads and
// the driver allocates nothing per op. (ThreadContext's scratch strings own
// heap blocks, but those are per-thread and stop reallocating once warm.)
struct alignas(kCacheLineSize) WorkerSlot {
  // Latency samples buffered between histogram flushes: one flush per
  // kLatencyBatch samples keeps the histogram's bucket array (a per-thread
  // heap block) out of the per-op path.
  static constexpr std::size_t kLatencyBatch = 64;

  explicit WorkerSlot(std::uint64_t rng_seed) : ctx(rng_seed) {}

  void RecordLatency(std::uint64_t cycles) {
    samples[pending] = cycles;
    if (++pending == kLatencyBatch) {
      FlushLatency();
    }
  }
  void FlushLatency() {
    if (pending != 0) {
      latency.RecordBatch(samples, pending);
      pending = 0;
    }
  }

  ThreadContext ctx;
  std::uint32_t pending = 0;  // buffered samples not yet in the histogram
  LatencyHistogram latency;
  std::uint64_t samples[kLatencyBatch];
  std::uint64_t counters[ScenarioWorkload::kMaxCounters] = {};

  // FailSafe cross-thread fields. Plain members (the slot must stay movable
  // for the slots vector); the worker writes and the watchdog reads them
  // through std::atomic_ref once the vector has stopped growing. `progress`
  // counts the ops the worker has finished.
  std::uint64_t progress = 0;
  bool finished = false;
};
static_assert(alignof(WorkerSlot) == kCacheLineSize,
              "worker slots must start on a cache-line boundary");
static_assert(sizeof(WorkerSlot) % kCacheLineSize == 0,
              "worker slots must span whole cache lines so adjacent slots "
              "never share one (false-sharing regression guard)");

// What the run phase measured.
struct DriverRun {
  double seconds = 0;
  std::uint64_t watchdog_stalls = 0;
  EnergySample energy;                     // zero when config.meter is kOff
  std::string meter_name;                  // "rapl", "model", "" when off
  std::vector<EnergyPoint> energy_series;  // non-empty when energy_sample_ms > 0
};

struct DriverFlags {
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
};

// Ops between two loads of the stop flag (or of config.external_stop in
// fixed-op runs). The flag is the only cross-thread line the measured loop
// reads; loading it every op would put one shared load inside every
// measured op.
inline constexpr std::uint32_t kStopCheckEvery = 32;

// One worker's measured loop. `body` is copied per thread, so the loop reads
// it from the worker's own stack, not through a shared reference. Fixed-op
// runs poll config.external_stop only when one is installed, so plain
// seeded runs keep the exact per-op instruction sequence.
template <typename Body>
void DriverLoop(const ScenarioConfig& config, WorkerSlot& slot, Body body,
                const DriverFlags& flags) {
  // Bound here rather than in the constructor: the slots vector may move
  // its elements while being filled.
  slot.ctx.counters = slot.counters;
  while (!flags.start.load(std::memory_order_acquire)) {
    SpinPause(PauseKind::kYield);
  }
  std::atomic_ref<std::uint64_t> progress(slot.progress);
  std::uint64_t ops_done = 0;
  if (config.duration_ms == 0) {
    std::uint32_t countdown = kStopCheckEvery;
    for (int i = 0; i < config.ops_per_thread; ++i) {
      if (config.external_stop != nullptr && --countdown == 0) {
        if (config.external_stop->load(std::memory_order_relaxed)) {
          break;
        }
        countdown = kStopCheckEvery;
      }
      body(slot);
      progress.store(++ops_done, std::memory_order_relaxed);
    }
  } else {
    std::uint32_t countdown = 0;
    for (;;) {
      if (countdown == 0) {
        if (flags.stop.load(std::memory_order_relaxed)) {
          break;
        }
        countdown = kStopCheckEvery;
      }
      --countdown;
      body(slot);
      progress.store(++ops_done, std::memory_order_relaxed);
    }
  }
  slot.FlushLatency();
  std::atomic_ref<bool>(slot.finished).store(true, std::memory_order_release);
}

// The run phase around the workers: starts `worker` on one thread per slot
// (pinned in the socket-first order when `pin_threads`), the energy meter
// config.meter names, the energy sampler and the watchdog as `config` asks,
// releases the workers together and stops them by op count or by duration.
// Slot t runs as thread_index t. `scenario_name` labels watchdog reports.
// This is the one place that tells the model meter which contexts are busy:
// contexts 0..threads-1 run as kCritical from its Start() to its Stop().
DriverRun RunDriverPhase(const ScenarioConfig& config, const std::string& scenario_name,
                         std::vector<WorkerSlot>& slots, bool pin_threads,
                         const std::function<void(WorkerSlot&, const DriverFlags&)>& worker);

// Runs `body(slot)` as every worker's op; see DriverLoop and RunDriverPhase.
template <typename Body>
DriverRun RunDriver(const ScenarioConfig& config, const std::string& scenario_name,
                    std::vector<WorkerSlot>& slots, bool pin_threads, const Body& body) {
  return RunDriverPhase(config, scenario_name, slots, pin_threads,
                        [&config, &body](WorkerSlot& slot, const DriverFlags& flags) {
                          DriverLoop(config, slot, body, flags);
                        });
}

// The result fields every driver caller reports the same way: scenario,
// lock, threads, seconds, total_ops (the slots' op_index), ops_per_s, the
// merged latency histogram, energy, meter name, energy series and watchdog
// stalls.
ScenarioResult CollectResult(const ScenarioConfig& config, const std::string& scenario_name,
                             const std::vector<WorkerSlot>& slots, DriverRun run);

}  // namespace lockin

#endif  // SRC_SYSTEMS_DRIVER_HPP_
