// Shared plumbing for the mini-systems.
//
// Every system takes a LockFactory so benchmarks and tests can swap the
// lock algorithm without touching system code -- the paper's experiment
// ("we do not modify anything else other than the pthread locks and
// conditionals in these systems", section 6).
#ifndef SRC_SYSTEMS_COMMON_HPP_
#define SRC_SYSTEMS_COMMON_HPP_

#include <functional>
#include <memory>
#include <string>

#include "src/locks/lock_api.hpp"
#include "src/locks/lock_registry.hpp"

namespace lockin {

using LockFactory = std::function<std::unique_ptr<LockHandle>()>;

// Spins after which a mini-system's spinlock waiter yields the CPU, so
// runs with more threads than cores cannot livelock (see
// SpinConfig::yield_after).
inline constexpr std::uint32_t kSystemSpinYieldAfter = 256;

// Factory for a registered lock name with default options and the
// kSystemSpinYieldAfter yield threshold. Unknown names raise
// std::invalid_argument at system construction (the registry's throwing
// contract) instead of handing the system a null lock.
inline LockFactory NamedLockFactory(const std::string& name) {
  return [name] {
    LockBuildOptions options;
    options.spin.yield_after = kSystemSpinYieldAfter;
    return MakeLockOrThrow(name, options);
  };
}

}  // namespace lockin

#endif  // SRC_SYSTEMS_COMMON_HPP_
