// Condition-variable tests: CondVar is used as WalStore uses it, waiting
// untimed and woken by Broadcast.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/locks/condvar.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/locks/mutexee.hpp"

namespace lockin {
namespace {

TEST(CondVar, BroadcastWakesAll) {
  MutexeeLock lock;
  CondVar cv;
  int ready = 0;
  std::atomic<int> released{0};
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      lock.lock();
      while (ready == 0) {
        cv.Wait(lock);
      }
      lock.unlock();
      released.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.lock();
  ready = 1;
  lock.unlock();
  cv.Broadcast();
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_EQ(released.load(), kWaiters);
}

TEST(CondVar, NoLostWakeupStress) {
  // Strict ping-pong on a registry MUTEX handle, waiting the way WalStore
  // waits on its DB lock: each side waits untimed for the other's item
  // and wakes it with Broadcast, so every handoff needs its wake-up and a
  // lost one hangs both threads until the ctest TIMEOUT fails the binary.
  const std::unique_ptr<LockHandle> lock = MakeLockOrThrow("MUTEX");
  CondVar cv;
  int items = 0;
  int consumed = 0;
  constexpr int kRounds = 5000;
  std::thread producer([&] {
    for (int i = 0; i < kRounds; ++i) {
      lock->lock();
      while (items != 0) {
        cv.Wait(*lock);
      }
      items = 1;
      lock->unlock();
      cv.Broadcast();
    }
  });
  std::thread consumer([&] {
    for (int i = 0; i < kRounds; ++i) {
      lock->lock();
      while (items == 0) {
        cv.Wait(*lock);
      }
      consumed += items;
      items = 0;
      lock->unlock();
      cv.Broadcast();
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed, kRounds);
}

}  // namespace
}  // namespace lockin
