#include "src/locks/lock_registry.hpp"

#include <stdexcept>

#include "src/adaptive/adaptive_lock.hpp"
#include "src/locks/static_dispatch.hpp"

namespace lockin {

std::unique_ptr<LockHandle> MakeLockOrThrow(const std::string& name,
                                            const LockBuildOptions& options) {
  // Every concrete (non-ADAPTIVE) name routes through the compile-time
  // dispatch table, wrapped in a LockAdapter, which keeps this type-erased
  // tier and the devirtualized tier configured identically.
  std::unique_ptr<LockHandle> handle;
  const bool concrete =
      WithConcreteLock(name, options, [&](auto tag, auto&&... args) {
        using L = typename decltype(tag)::type;
        handle = std::make_unique<LockAdapter<L>>(
            name, std::forward<decltype(args)>(args)...);
      });
  if (concrete) {
    return handle;
  }
  if (name == "ADAPTIVE") {
    AdaptiveLockConfig config;
    // The spin config reaches the TTAS backend, which keeps it yielding on
    // oversubscribed hosts.
    config.spin = options.spin;
    return std::make_unique<LockAdapter<AdaptiveLock>>("ADAPTIVE", config);
  }
  std::string message = "unknown lock: '" + name + "'; available locks:";
  for (const std::string& lock_name : RegisteredLockNames()) {
    message += ' ';
    message += lock_name;
  }
  throw std::invalid_argument(message);
}

std::vector<std::string> RegisteredLockNames() {
  return {"MUTEX", "PTHREAD", "TAS",     "TTAS",       "TICKET",
          "MCS",   "CLH",     "MUTEXEE", "MUTEXEE-TO", "ADAPTIVE"};
}

}  // namespace lockin
