#include "src/locks/harness.hpp"

#include <memory>

#include "src/locks/static_dispatch.hpp"
#include "src/platform/cycles.hpp"
#include "src/systems/driver.hpp"

namespace lockin {
namespace {

// One microbenchmark op: an acquire/release pair on a lock picked per op
// when there are several; the latency sample covers the acquire only.
// `Lock` is a concrete lock (static tier: lock()/unlock() inline into the
// driver loop, hence the forced inlining) or LockHandle (type-erased tier:
// two virtual calls per op).
template <typename Lock>
struct AcquireOp {
  Lock* const* locks;
  std::size_t lock_count;
  std::uint64_t cs_cycles;
  std::uint64_t non_cs_cycles;
  bool record;

  [[gnu::always_inline]] void operator()(WorkerSlot& slot) const {
    Lock& lock = lock_count == 1 ? *locks[0] : *locks[slot.ctx.rng.NextBelow(lock_count)];
    if (record) {
      const std::uint64_t before = ReadCycles();
      lock.lock();
      slot.RecordLatency(ReadCycles() - before);
    } else {
      lock.lock();
    }
    SpinForCycles(cs_cycles);
    lock.unlock();
    ++slot.ctx.op_index;
    if (non_cs_cycles != 0) {
      SpinForCycles(non_cs_cycles);
    }
  }
};

template <typename Lock, typename Factory>
NativeBenchResult RunOnLocks(const NativeBenchConfig& config, EnergyMeter* meter,
                             Factory&& make_lock) {
  std::vector<std::unique_ptr<Lock>> locks;
  std::vector<Lock*> lock_ptrs;
  for (int i = 0; i < config.locks; ++i) {
    locks.push_back(make_lock());
    lock_ptrs.push_back(locks.back().get());
  }

  ScenarioConfig run;
  run.lock_name = config.lock_name;
  run.threads = config.threads;
  run.duration_ms = config.duration_ms;
  run.ops_per_thread = 0;  // a zero-length run stays empty
  std::vector<WorkerSlot> slots;
  slots.reserve(static_cast<std::size_t>(config.threads));
  for (int t = 0; t < config.threads; ++t) {
    slots.emplace_back(config.seed * 40503 + static_cast<std::uint64_t>(t));
  }
  const AcquireOp<Lock> op{lock_ptrs.data(), lock_ptrs.size(), config.cs_cycles,
                           config.non_cs_cycles, config.record_latency};
  const DriverRun driven = RunDriver(run, "", slots, meter, /*pin_threads=*/true, op);

  NativeBenchResult result;
  result.lock_name = config.lock_name;
  result.seconds = driven.seconds;
  result.energy = driven.energy;
  for (const WorkerSlot& slot : slots) {
    result.total_acquires += slot.ctx.op_index;
    result.acquire_latency_cycles.Merge(slot.latency);
  }
  result.throughput_per_s = result.seconds > 0
                                ? static_cast<double>(result.total_acquires) / result.seconds
                                : 0;
  result.tpp = result.energy.total_joules() > 0
                   ? static_cast<double>(result.total_acquires) / result.energy.total_joules()
                   : 0;
  return result;
}

}  // namespace

NativeBenchResult RunNativeBench(const NativeBenchConfig& config, EnergyMeter* meter) {
  NativeBenchResult result;
  const bool dispatched =
      WithConcreteLock(config.lock_name, config.lock_options, [&](auto tag, auto&&... args) {
        using L = typename decltype(tag)::type;
        result = RunOnLocks<L>(config, meter, [&] { return std::make_unique<L>(args...); });
        result.used_static_dispatch = true;
      });
  if (dispatched) {
    return result;
  }
  // Handle tier: ADAPTIVE, or an unknown name (MakeLockOrThrow's
  // std::invalid_argument).
  return RunOnLocks<LockHandle>(config, meter, [&] {
    return MakeLockOrThrow(config.lock_name, config.lock_options);
  });
}

}  // namespace lockin
