// Runtime lock registry: paper lock names -> LockHandle factories.
//
// Benchmarks and the mini-systems select the lock algorithm by the name the
// paper's figures use (MUTEX, TAS, TTAS, TICKET, MCS, CLH, MUTEXEE, ...),
// mirroring how the paper swaps locks without touching the systems.
#ifndef SRC_LOCKS_LOCK_REGISTRY_HPP_
#define SRC_LOCKS_LOCK_REGISTRY_HPP_

#include <functional>
#include <memory>
#include <string>
#include <vector>

// FutexWaitResult: perfbench/src/scenario_workloads.cpp decodes the
// kFutexSleepEnd arg with it and reaches this header, not futex.hpp.
#include "src/futex/futex.hpp"
#include "src/locks/lock_api.hpp"
#include "src/locks/spinlocks.hpp"

namespace lockin {

// Options applied at construction where the algorithm supports them.
struct LockBuildOptions {
  SpinConfig spin;  // spinlock yield policy (TAS, TTAS, TICKET, MCS, CLH, ADAPTIVE)
};

// Creates a lock by paper name. Recognized names: "MUTEX" (FutexLock),
// "PTHREAD" (glibc), "TAS", "TTAS", "TICKET", "MCS", "CLH", "MUTEXEE",
// "MUTEXEE-TO" (MUTEXEE with MutexeeLock::kToSleepTimeoutNs), "ADAPTIVE"
// (the energy-aware adaptive runtime, src/adaptive/). An unknown name
// raises std::invalid_argument naming the offender and the known names.
std::unique_ptr<LockHandle> MakeLockOrThrow(const std::string& name,
                                            const LockBuildOptions& options = {});

// All registered lock names, in the paper's presentation order.
std::vector<std::string> RegisteredLockNames();

}  // namespace lockin

#endif  // SRC_LOCKS_LOCK_REGISTRY_HPP_
