// Lock-algorithm correctness tests, parameterized over every registered
// algorithm (TEST_P): mutual exclusion, a held lock keeping a second thread
// out, progress under contention, guard RAII. Host-agnostic: spinlocks get
// a yield threshold so single-CPU machines interleave instead of burning
// whole quanta.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/locks/clh.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/locks/mcs.hpp"
#include "src/locks/spinlocks.hpp"
#include "tests/lock_probe.hpp"

namespace lockin {
namespace {

LockBuildOptions TestOptions() {
  LockBuildOptions options;
  options.spin.yield_after = 64;  // keep 1-CPU hosts live
  return options;
}

class LockParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LockParamTest, Constructs) {
  auto lock = MakeLockOrThrow(GetParam(), TestOptions());
  EXPECT_EQ(lock->name(), GetParam());
}

TEST_P(LockParamTest, LockUnlockSingleThread) {
  auto lock = MakeLockOrThrow(GetParam(), TestOptions());
  for (int i = 0; i < 1000; ++i) {
    lock->lock();
    lock->unlock();
  }
}

TEST_P(LockParamTest, HeldLockKeepsOtherThreadOut) {
  auto lock = MakeLockOrThrow(GetParam(), TestOptions());
  EXPECT_FALSE(EntersWhileHeld(*lock));
}

TEST_P(LockParamTest, MutualExclusionCounter) {
  auto lock = MakeLockOrThrow(GetParam(), TestOptions());
  constexpr int kThreads = 4;
  constexpr int kIters = 3000;
  // A plain (non-atomic) counter: lost updates appear unless the lock
  // provides mutual exclusion.
  long long counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        HandleGuard guard(*lock);
        counter = counter + 1;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIters);
}

TEST_P(LockParamTest, MutualExclusionInvariantHolds) {
  auto lock = MakeLockOrThrow(GetParam(), TestOptions());
  constexpr int kThreads = 4;
  constexpr int kIters = 1500;
  std::atomic<int> inside{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock->lock();
        if (inside.fetch_add(1) != 0) {
          violated.store(true);
        }
        inside.fetch_sub(1);
        lock->unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(violated.load());
}

// Stress case (the `stress` ctest label reruns every *Stress* test): twice
// as many threads as CPUs, each holding the lock across a yield, so the
// lock changes hands while its waiters spin, queue or sleep.
class LockStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LockStressTest, OversubscribedHandoversKeepExclusion) {
  auto lock = MakeLockOrThrow(GetParam(), TestOptions());
  const int threads = 2 * static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  constexpr int kIters = 250;
  long long counter = 0;
  std::atomic<int> inside{0};
  std::atomic<bool> violated{false};
  std::atomic<int> started{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      started.fetch_add(1);
      while (started.load() < threads) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kIters; ++i) {
        HandleGuard guard(*lock);
        if (inside.fetch_add(1) != 0) {
          violated.store(true);
        }
        std::this_thread::yield();
        counter = counter + 1;
        inside.fetch_sub(1);
      }
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(counter, static_cast<long long>(threads) * kIters);
}

std::string LockTestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllLocks, LockParamTest,
                         ::testing::ValuesIn(RegisteredLockNames()), LockTestName);
INSTANTIATE_TEST_SUITE_P(AllLocks, LockStressTest,
                         ::testing::ValuesIn(RegisteredLockNames()), LockTestName);

TEST(LockRegistry, UnknownNameThrows) {
  // The exception RunNativeBench documents comes from here.
  EXPECT_THROW(MakeLockOrThrow("NOPE"), std::invalid_argument);
  EXPECT_NE(MakeLockOrThrow("MUTEX"), nullptr);
}

TEST(LockRegistry, ListsAllNames) {
  const auto names = RegisteredLockNames();
  EXPECT_EQ(names, (std::vector<std::string>{"MUTEX", "PTHREAD", "TAS", "TTAS", "TICKET", "MCS",
                                              "CLH", "MUTEXEE", "MUTEXEE-TO", "ADAPTIVE"}));
  for (const auto& name : names) {
    EXPECT_NE(MakeLockOrThrow(name, TestOptions()), nullptr) << name;
  }
}

TEST(McsLock, NestedDistinctLocks) {
  McsLock a;
  McsLock b;
  a.lock();
  b.lock();  // nested acquisition uses a second TLS node
  b.unlock();
  a.unlock();
  // And again to verify the TLS stack unwound correctly.
  a.lock();
  a.unlock();
}

TEST(ClhLock, HandoffAcrossThreads) {
  ClhLock lock;
  long long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, 6000);
}

TEST(SpinConfigTest, YieldAfterPreventsStarvationOnTinyHosts) {
  // Regression guard for single-CPU CI: a yielding TTAS must finish quickly
  // even with more threads than cores.
  SpinConfig config;
  config.yield_after = 16;
  TtasLock lock(config);
  long long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, 4000);
}

}  // namespace
}  // namespace lockin
