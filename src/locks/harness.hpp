// Native measurement harness: runs the paper's microbenchmark shape (N
// threads, L locks, C-cycle critical sections) against the *real* lock
// library on the host, measuring throughput with the cycle counter and
// energy through the EnergyMeter stack (RAPL when available, the model
// otherwise). This is the harness a user with a multi-socket machine runs
// to get paper-style numbers on real hardware; the simulator benches in
// bench/ are its calibrated stand-in.
//
// Each acquire/release pair is one op on the shared worker driver
// (src/systems/driver.hpp), which owns the threads, the cache-line-aligned
// per-thread slots, the stop cadence, the timing and the energy meter, so a
// microbenchmark run is configured and reported like any scenario run.
// Threads are pinned in the paper's socket-first order. The op runs on one
// of two dispatch tiers:
//   * static  -- the op is instantiated per concrete lock type
//                (src/locks/static_dispatch.hpp), so lock()/unlock() inline
//                into the driver's loop with zero indirect calls;
//   * handle  -- the type-erased LockHandle path (two virtual calls per
//                acquire/release pair), used for names without a concrete
//                type (ADAPTIVE). The benchmark's per-layer metrics
//                locks.uncontested_ns.{static,handle}.<lock> time both.
// IsStaticallyDispatchable(name) (src/locks/static_dispatch.hpp) says which
// tier a name runs on.
#ifndef SRC_LOCKS_HARNESS_HPP_
#define SRC_LOCKS_HARNESS_HPP_

#include <cstdint>

#include "src/locks/lock_registry.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {

// What the microbenchmark adds to a ScenarioConfig: the shape of each op.
struct AcquireShape {
  int locks = 1;  // each op picks one at random when there are several
  std::uint64_t cs_cycles = 1000;
  std::uint64_t non_cs_cycles = 100;
  // The only input that shapes how the locks are built: the spin yield
  // threshold.
  LockBuildOptions lock_options;
};

// Runs config.threads workers doing acquire/release ops shaped by `shape`,
// on the static tier when config.lock_name has a concrete type and on the
// handle tier otherwise. `config` supplies what the driver reads: lock name,
// threads, run length (ops_per_thread when duration_ms == 0, as for
// scenarios), seed (worker t seeds its RNG with seed*40503+t),
// record_latency (one sample per acquire), meter, the workers' trace rings
// (and with them the energy sampler), the watchdog and external_stop. The
// microbenchmark ignores the scenario-only fields: key_space, failpoints
// and lockdep. The result's scenario name and metrics stay empty. Unknown lock names raise
// std::invalid_argument (the registry's throwing contract via
// MakeLockOrThrow).
ScenarioResult RunNativeBench(const ScenarioConfig& config, const AcquireShape& shape);

}  // namespace lockin

#endif  // SRC_LOCKS_HARNESS_HPP_
