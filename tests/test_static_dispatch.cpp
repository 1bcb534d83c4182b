// Compile-time dispatch layer tests: the static tier must cover every
// registered concrete lock, configure it exactly as the registry does, and
// refuse the names that only exist behind the type-erased interface.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

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

// The MUTEXEE / MUTEXEE-TO split: with default options the plain name
// never times out and the -TO name sleeps with section 5.1's 4 ms. The
// registry builds its LockAdapters through the same table.
TEST(StaticDispatch, MutexeeTimeoutPlumbingMatchesRegistry) {
  EXPECT_EQ(MutexeeLock::kToSleepTimeoutNs, 4'000'000u);
  const struct {
    const char* name;
    std::uint64_t sleep_timeout_ns;
  } cases[] = {{"MUTEXEE", 0}, {"MUTEXEE-TO", MutexeeLock::kToSleepTimeoutNs}};
  for (const auto& c : cases) {
    const bool dispatched =
        WithConcreteLock(c.name, LockBuildOptions{}, [&](auto tag, auto&&... args) {
          using L = typename decltype(tag)::type;
          L lock(args...);
          if constexpr (std::is_same_v<L, MutexeeLock>) {
            EXPECT_EQ(lock.config().sleep_timeout_ns, c.sleep_timeout_ns) << c.name;
          } else {
            FAIL() << c.name << " must dispatch to MutexeeLock";
          }
        });
    EXPECT_TRUE(dispatched) << c.name;
    const std::unique_ptr<LockHandle> handle = MakeLock(c.name);
    ASSERT_NE(handle, nullptr) << c.name;
    EXPECT_EQ(static_cast<LockAdapter<MutexeeLock>*>(handle.get())->impl().config().sleep_timeout_ns,
              c.sleep_timeout_ns)
        << c.name;
  }
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
