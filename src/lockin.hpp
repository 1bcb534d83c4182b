// Umbrella header for the lockin++ library.
//
// Pulls in the public lock API, every algorithm, the energy measurement
// stack and the platform helpers. Benchmark/simulator headers are not
// included here; include src/sim/workload.hpp explicitly for those.
#ifndef SRC_LOCKIN_HPP_
#define SRC_LOCKIN_HPP_

#include "src/energy/energy_meter.hpp"
#include "src/energy/model_meter.hpp"
#include "src/energy/power_model.hpp"
#include "src/energy/rapl_meter.hpp"
#include "src/futex/futex.hpp"
#include "src/locks/clh.hpp"
#include "src/locks/condvar.hpp"
#include "src/locks/futex_lock.hpp"
#include "src/locks/lock_api.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/locks/mcs.hpp"
#include "src/locks/mutexee.hpp"
#include "src/locks/pthread_adapter.hpp"
#include "src/locks/spinlocks.hpp"
#include "src/locks/tuner.hpp"
#include "src/platform/cacheline.hpp"
#include "src/platform/cycles.hpp"
#include "src/platform/rng.hpp"
#include "src/platform/spin_hint.hpp"
#include "src/platform/topology.hpp"
#include "src/stats/histogram.hpp"
#include "src/stats/summary.hpp"
#include "src/stats/table.hpp"

#endif  // SRC_LOCKIN_HPP_
