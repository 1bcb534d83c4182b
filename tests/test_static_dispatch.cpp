// Compile-time dispatch layer tests: the static tier must cover every
// registered concrete lock, configure it exactly as the registry does, and
// refuse the names that only exist behind the type-erased interface.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/locks/static_dispatch.hpp"

namespace lockin {
namespace {

TEST(StaticDispatch, CoversEveryRegisteredNameExceptAdaptive) {
  for (const std::string& name : RegisteredLockNames()) {
    if (name == "ADAPTIVE") {
      EXPECT_FALSE(IsStaticallyDispatchable(name))
          << "ADAPTIVE switches algorithms at run time; it cannot be devirtualized";
    } else {
      EXPECT_TRUE(IsStaticallyDispatchable(name)) << name;
    }
  }
}

TEST(StaticDispatch, RejectsUnknownNamesWithoutCallingVisitor) {
  bool called = false;
  const bool dispatched =
      WithConcreteLock("NOPE", LockBuildOptions{}, [&](auto, auto&&...) { called = true; });
  EXPECT_FALSE(dispatched);
  EXPECT_FALSE(called);
}

TEST(StaticDispatch, ConstructedLocksSatisfyLockable) {
  LockBuildOptions options;
  options.spin.yield_after = 64;
  for (const std::string& name : RegisteredLockNames()) {
    if (!IsStaticallyDispatchable(name)) {
      continue;
    }
    const bool dispatched = WithConcreteLock(name, options, [&](auto tag, auto&&... args) {
      using L = typename decltype(tag)::type;
      static_assert(Lockable<L>);
      L lock(args...);
      lock.lock();
      EXPECT_FALSE(lock.try_lock()) << name;
      lock.unlock();
      EXPECT_TRUE(lock.try_lock()) << name;
      lock.unlock();
    });
    EXPECT_TRUE(dispatched) << name;
  }
}

// The MUTEXEE / MUTEXEE-TO split: the plain name forces the sleep timeout
// off regardless of the options; the -TO name honors it. Both tiers must
// agree (the shared *ConfigFrom helpers are the single source of truth).
TEST(StaticDispatch, MutexeeTimeoutPlumbingMatchesRegistry) {
  LockBuildOptions options;
  options.mutexee.sleep_timeout_ns = 5'000'000;

  WithConcreteLock("MUTEXEE", options, [&](auto tag, auto&&... args) {
    using L = typename decltype(tag)::type;
    L lock(args...);
    if constexpr (std::is_same_v<L, MutexeeLock>) {
      EXPECT_EQ(lock.config().sleep_timeout_ns, 0u);
    } else {
      FAIL() << "MUTEXEE must dispatch to MutexeeLock";
    }
  });
  WithConcreteLock("MUTEXEE-TO", options, [&](auto tag, auto&&... args) {
    using L = typename decltype(tag)::type;
    L lock(args...);
    if constexpr (std::is_same_v<L, MutexeeLock>) {
      EXPECT_EQ(lock.config().sleep_timeout_ns, 5'000'000u);
    } else {
      FAIL() << "MUTEXEE-TO must dispatch to MutexeeLock";
    }
  });
}

TEST(StaticDispatch, RegistryBuildsConcreteNamesThroughSameTable) {
  // MakeLock must succeed exactly for {statically dispatchable} + ADAPTIVE.
  for (const std::string& name : RegisteredLockNames()) {
    const std::unique_ptr<LockHandle> handle = MakeLock(name);
    ASSERT_NE(handle, nullptr) << name;
    EXPECT_EQ(handle->name(), name);
  }
  EXPECT_EQ(MakeLock("NOPE"), nullptr);
}

}  // namespace
}  // namespace lockin
