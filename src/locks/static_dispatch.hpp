// Compile-time dispatch over the lock registry.
//
// The registry (src/locks/lock_registry.hpp) hands out type-erased
// LockHandles: two virtual calls per acquire/release pair. That is fine for
// the mini-systems (their critical sections dwarf a virtual call) but it is
// measurement overhead in the *measured loop* of the native harness and the
// uncontested microbenchmarks, where lock()/unlock() themselves are the
// payload. This header maps every registered concrete lock name to its
// concrete type so those loops can be instantiated as templates with fully
// inlined lock()/unlock() -- the devirtualized "static" dispatch tier.
// ADAPTIVE (which switches algorithms at run time and is inherently
// indirect) and unknown names are not mapped; callers fall back to the
// LockHandle tier.
//
// WithConcreteLock below is the single source of truth for how
// LockBuildOptions reaches each algorithm's constructor; lock_registry.cpp
// builds its LockAdapters through it, so the two dispatch tiers can never
// configure a lock differently.
#ifndef SRC_LOCKS_STATIC_DISPATCH_HPP_
#define SRC_LOCKS_STATIC_DISPATCH_HPP_

#include <memory>
#include <string>
#include <utility>

#include "src/locks/clh.hpp"
#include "src/locks/futex_lock.hpp"
#include "src/locks/lock_api.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/locks/mcs.hpp"
#include "src/locks/mutexee.hpp"
#include "src/locks/pthread_adapter.hpp"
#include "src/locks/spinlocks.hpp"

namespace lockin {

// Tag carrying the concrete lock type through a generic visitor.
template <typename L>
struct LockTypeTag {
  using type = L;
};

// Calls `visitor(LockTypeTag<L>{}, ctor_args...)` with the constructor
// arguments the registry would use for the same name (locks hold atomics
// and are neither copyable nor movable, so the visitor receives the
// arguments rather than a built instance and constructs in place). Returns
// true if `name` has a concrete compile-time type; false (without calling
// the visitor) for ADAPTIVE and unknown names, which only exist behind the
// type-erased LockHandle interface.
template <typename Visitor>
bool WithConcreteLock(const std::string& name, const LockBuildOptions& options,
                      Visitor&& visitor) {
  if (name == "MUTEX") {
    visitor(LockTypeTag<FutexLock>{});
    return true;
  }
  if (name == "PTHREAD") {
    visitor(LockTypeTag<PthreadMutex>{});
    return true;
  }
  if (name == "TAS") {
    visitor(LockTypeTag<TasLock>{}, options.spin);
    return true;
  }
  if (name == "TTAS") {
    visitor(LockTypeTag<TtasLock>{}, options.spin);
    return true;
  }
  if (name == "TICKET") {
    visitor(LockTypeTag<TicketLock>{}, options.spin);
    return true;
  }
  if (name == "MCS") {
    visitor(LockTypeTag<McsLock>{}, options.spin);
    return true;
  }
  if (name == "CLH") {
    visitor(LockTypeTag<ClhLock>{}, options.spin);
    return true;
  }
  if (name == "MUTEXEE") {
    visitor(LockTypeTag<MutexeeLock>{}, MutexeeConfig{});
    return true;
  }
  if (name == "MUTEXEE-TO") {
    MutexeeConfig config;
    config.sleep_timeout_ns = MutexeeLock::kToSleepTimeoutNs;
    visitor(LockTypeTag<MutexeeLock>{}, config);
    return true;
  }
  return false;
}

// True when `name` can run on the devirtualized tier.
inline bool IsStaticallyDispatchable(const std::string& name) {
  return WithConcreteLock(name, LockBuildOptions{}, [](auto, auto&&...) {});
}

}  // namespace lockin

#endif  // SRC_LOCKS_STATIC_DISPATCH_HPP_
