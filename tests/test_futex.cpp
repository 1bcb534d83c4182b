// Unit tests for the native futex wrappers.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/futex/futex.hpp"

namespace lockin {
namespace {

TEST(Futex, WaitReturnsStaleWhenValueChanged) {
  std::atomic<std::uint32_t> word{1};
  // Expected 0, actual 1: must return immediately with kValueStale.
  EXPECT_EQ(FutexWait(&word, 0), FutexWaitResult::kValueStale);
}

TEST(Futex, TimedWaitTimesOut) {
  std::atomic<std::uint32_t> word{0};
  const auto result = FutexWaitTimeout(&word, 0, 5'000'000);  // 5 ms
  EXPECT_EQ(result, FutexWaitResult::kTimedOut);
}

TEST(Futex, WakeWithNoSleepersReturnsZero) {
  std::atomic<std::uint32_t> word{0};
  EXPECT_EQ(FutexWake(&word, 1), 0);
}

TEST(Futex, WakeUnblocksSleeper) {
  std::atomic<std::uint32_t> word{0};
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    while (word.load() == 0) {
      if (FutexWait(&word, 0) == FutexWaitResult::kValueStale) {
        break;
      }
    }
    woke.store(true);
  });
  // Let the sleeper block, then release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  word.store(1);
  FutexWake(&word, 1);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(Futex, CountedWrappersAccount) {
  std::atomic<std::uint32_t> word{1};
  FutexStats stats;
  // A stale wait is a sleep miss.
  EXPECT_EQ(FutexWaitCounted(&word, 0, &stats), FutexWaitResult::kValueStale);
  EXPECT_EQ(stats.sleeps.load(), 1u);
  EXPECT_EQ(stats.sleep_misses.load(), 1u);

  // A timed-out wait is a timeout.
  word.store(0);
  EXPECT_EQ(FutexWaitTimeoutCounted(&word, 0, 2'000'000, &stats), FutexWaitResult::kTimedOut);
  EXPECT_EQ(stats.timeouts.load(), 1u);
  EXPECT_EQ(stats.sleeps.load(), 2u);

  FutexWakeCounted(&word, 1, &stats);
  EXPECT_EQ(stats.wake_calls.load(), 1u);
  EXPECT_EQ(stats.threads_woken.load(), 0u);
}

TEST(Futex, WakeCountsWokenThreads) {
  std::atomic<std::uint32_t> word{0};
  FutexStats stats;
  constexpr int kSleepers = 3;
  std::atomic<int> awake{0};
  std::vector<std::thread> threads;
  threads.reserve(kSleepers);
  for (int i = 0; i < kSleepers; ++i) {
    threads.emplace_back([&] {
      while (word.load() == 0) {
        if (FutexWait(&word, 0) == FutexWaitResult::kValueStale) {
          break;
        }
      }
      awake.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  word.store(1);
  int woken = 0;
  // Sleepers may not all have blocked yet; wake until all are accounted.
  for (int tries = 0; tries < 100 && woken < kSleepers; ++tries) {
    woken += FutexWakeCounted(&word, kSleepers, &stats);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (awake.load() == kSleepers) {
      break;
    }
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(awake.load(), kSleepers);
  EXPECT_EQ(stats.threads_woken.load(), static_cast<std::uint64_t>(woken));
}

}  // namespace
}  // namespace lockin
