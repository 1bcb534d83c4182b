#include "src/locks/harness.hpp"

#include <memory>
#include <utility>
#include <vector>

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
ScenarioResult RunOnLocks(const ScenarioConfig& config, const AcquireShape& shape,
                          Factory&& make_lock) {
  std::vector<std::unique_ptr<Lock>> locks;
  std::vector<Lock*> lock_ptrs;
  for (int i = 0; i < shape.locks; ++i) {
    locks.push_back(make_lock());
    lock_ptrs.push_back(locks.back().get());
  }

  std::vector<WorkerSlot> slots;
  slots.reserve(static_cast<std::size_t>(config.threads));
  for (int t = 0; t < config.threads; ++t) {
    slots.emplace_back(config.seed * 40503 + static_cast<std::uint64_t>(t));
  }
  const AcquireOp<Lock> op{lock_ptrs.data(), lock_ptrs.size(), shape.cs_cycles,
                           shape.non_cs_cycles, config.record_latency};
  DriverRun run = RunDriver(config, "", slots, /*pin_threads=*/true, op);
  return CollectResult(config, "", slots, std::move(run));
}

}  // namespace

ScenarioResult RunNativeBench(const ScenarioConfig& config, const AcquireShape& shape) {
  ScenarioResult result;
  const bool dispatched =
      WithConcreteLock(config.lock_name, shape.lock_options, [&](auto tag, auto&&... args) {
        using L = typename decltype(tag)::type;
        result = RunOnLocks<L>(config, shape, [&] { return std::make_unique<L>(args...); });
      });
  if (dispatched) {
    return result;
  }
  // Handle tier: ADAPTIVE, or an unknown name (MakeLockOrThrow's
  // std::invalid_argument).
  return RunOnLocks<LockHandle>(config, shape, [&] {
    return MakeLockOrThrow(config.lock_name, shape.lock_options);
  });
}

}  // namespace lockin
