#include "src/systems/driver.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "src/analysis/lockdep.hpp"
#include "src/energy/model_meter.hpp"
#include "src/energy/power_model.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/platform/failpoint.hpp"
#include "src/platform/topology.hpp"

namespace lockin {
namespace {

TraceBuffer* NewTraceBuffer(const ScenarioConfig& config, int tid) {
  return config.trace ? TraceSession::Instance().NewBuffer(static_cast<std::uint16_t>(tid),
                                                           config.trace_buffer_events)
                      : nullptr;
}

// FailSafe stall watchdog. Polls every worker's progress counter; a worker
// that is neither finished nor advancing for a full window is declared
// stalled. The report goes to stderr with the lockdep held-lock snapshot and
// the failpoint counters, then the process exits with code 3: a wedged run
// fails fast instead of hanging ctest. Returns once `watchdog_stop` is set.
void WatchStalls(const ScenarioConfig& config, const std::string& scenario_name,
                 std::vector<WorkerSlot>& slots, const DriverFlags& flags,
                 const std::atomic<bool>& watchdog_stop) {
  ScopedTraceSink sink(NewTraceBuffer(config, config.threads + 2));
  using Clock = std::chrono::steady_clock;
  const auto poll = std::chrono::milliseconds(
      std::max<std::uint32_t>(1, std::min<std::uint32_t>(config.watchdog_ms / 4, 25)));
  const auto window = std::chrono::milliseconds(config.watchdog_ms);
  while (!flags.start.load(std::memory_order_acquire)) {
    if (watchdog_stop.load(std::memory_order_acquire)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::uint64_t> last_progress(slots.size(), 0);
  std::vector<Clock::time_point> last_change(slots.size(), Clock::now());
  while (!watchdog_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    const Clock::time_point now = Clock::now();
    for (std::size_t w = 0; w < slots.size(); ++w) {
      if (std::atomic_ref<bool>(slots[w].finished).load(std::memory_order_acquire)) {
        continue;
      }
      const std::uint64_t p =
          std::atomic_ref<std::uint64_t>(slots[w].progress).load(std::memory_order_relaxed);
      if (p != last_progress[w]) {
        last_progress[w] = p;
        last_change[w] = now;
        continue;
      }
      if (now - last_change[w] < window) {
        continue;
      }
      const auto stalled_ms = static_cast<unsigned long long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(now - last_change[w]).count());
      std::fprintf(stderr,
                   "lockin watchdog: worker %zu of scenario '%s' (lock %s) made no "
                   "progress for %llu ms (%llu ops completed)\n",
                   w, scenario_name.c_str(), config.lock_name.c_str(), stalled_ms,
                   static_cast<unsigned long long>(p));
      std::fputs("held traced locks at stall time:\n", stderr);
      std::fputs(LockdepHeldDescribe().c_str(), stderr);
      const std::string failpoints = FailpointsReport();
      if (!failpoints.empty()) {
        std::fputs(failpoints.c_str(), stderr);
      }
      TraceEmit(TraceEventKind::kWatchdogStall, static_cast<std::uint64_t>(w));
      if (config.on_stall) {
        config.on_stall();
      }
      std::fputs("lockin watchdog: aborting the wedged run (exit code 3)\n", stderr);
      std::fflush(nullptr);
      std::_Exit(3);
    }
  }
}

}  // namespace

DriverRun RunDriverPhase(const ScenarioConfig& config, const std::string& scenario_name,
                         std::vector<WorkerSlot>& slots, bool pin_threads,
                         const std::function<void(WorkerSlot&, const DriverFlags&)>& worker) {
  // Trace tids: 0..threads-1 are the workers, threads is the caller's
  // driver thread, threads+1 the energy sampler, threads+2 the watchdog.
  std::vector<TraceBuffer*> worker_traces;
  for (std::size_t t = 0; t < slots.size(); ++t) {
    slots[t].ctx.thread_index = static_cast<int>(t);
    worker_traces.push_back(NewTraceBuffer(config, static_cast<int>(t)));
  }
  std::vector<CpuInfo> pinning;
  if (pin_threads) {
    pinning = Topology::Detect().PinningOrder();
  }

  DriverFlags flags;
  std::vector<std::thread> workers;
  workers.reserve(slots.size());
  for (std::size_t t = 0; t < slots.size(); ++t) {
    workers.emplace_back([&, t] {
      ScopedTraceSink sink(worker_traces[t]);  // null when tracing is off
      if (!pinning.empty()) {
        PinThreadToCpu(pinning[t % pinning.size()].os_cpu);
      }
      worker(slots[t], flags);
    });
  }

  // kAuto follows the fallback chain (RAPL when readable, else the model).
  // The model charges the workers' contexts as busy for the whole run
  // phase; RAPL reads the hardware counters. The sampler's one output is
  // the trace's watts track, so only traced runs start it.
  std::unique_ptr<EnergyMeter> meter;
  if (config.meter != MeterChoice::kOff) {
    const PowerModel model(Topology::Detect(), PowerParams::PaperXeon());
    const int busy_contexts = static_cast<int>(slots.size());
    meter = config.meter == MeterChoice::kModel
                ? std::make_unique<ModelMeter>(model, busy_contexts)
                : MakeDefaultMeter(model, busy_contexts);
    meter->Start();
  }
  std::unique_ptr<EnergySampler> sampler;
  if (meter != nullptr && config.trace) {
    sampler = std::make_unique<EnergySampler>(meter.get(),
                                              NewTraceBuffer(config, config.threads + 1));
  }
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;
  if (config.watchdog_ms > 0) {
    watchdog = std::thread(
        [&] { WatchStalls(config, scenario_name, slots, flags, watchdog_stop); });
  }

  TraceEmit(TraceEventKind::kPhaseBegin, 1);
  const auto t0 = std::chrono::steady_clock::now();
  flags.start.store(true, std::memory_order_release);
  if (config.duration_ms != 0) {
    // Paced in short chunks so an external stop (SIGINT) ends the run early.
    const auto run_deadline = t0 + std::chrono::milliseconds(config.duration_ms);
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= run_deadline) {
        break;
      }
      if (config.external_stop != nullptr &&
          config.external_stop->load(std::memory_order_relaxed)) {
        break;
      }
      std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
          run_deadline - now, std::chrono::milliseconds(10)));
    }
    flags.stop.store(true, std::memory_order_release);
  }
  for (std::thread& thread : workers) {
    thread.join();
  }
  if (watchdog.joinable()) {
    watchdog_stop.store(true, std::memory_order_release);
    watchdog.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  TraceEmit(TraceEventKind::kPhaseEnd, 1);

  DriverRun run;
  run.seconds = std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  if (sampler != nullptr) {
    sampler->Finish();
  }
  if (meter != nullptr) {
    run.energy = meter->Stop();
    run.meter_name = meter->Name();
  }
  return run;
}

ScenarioResult CollectResult(const ScenarioConfig& config, const std::string& scenario_name,
                             const std::vector<WorkerSlot>& slots, DriverRun run) {
  ScenarioResult result;
  result.scenario = scenario_name;
  result.lock_name = config.lock_name;
  result.threads = config.threads;
  result.seconds = run.seconds;
  for (const WorkerSlot& slot : slots) {
    result.total_ops += slot.ctx.op_index;
    result.op_latency_cycles.Merge(slot.latency);
  }
  result.ops_per_s =
      result.seconds > 0 ? static_cast<double>(result.total_ops) / result.seconds : 0;
  result.energy = run.energy;
  result.meter_name = std::move(run.meter_name);
  return result;
}

}  // namespace lockin
