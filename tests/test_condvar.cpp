// Condition-variable tests: CondVar is used as WalStore uses it, waiting
// untimed and woken by Broadcast.
#include <gtest/gtest.h>

#include <algorithm>
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

// Stress case (the `stress` ctest label reruns every *Stress* test): a
// token ring of twice as many threads as CPUs on a registry MUTEXEE handle.
// Thread i may take a turn only when turn % threads == i, so every turn is
// a handover to one chosen thread that is most likely asleep in Wait; the
// holder yields before passing the token. A lost wake-up hangs the ring
// until the ctest TIMEOUT fails the binary.
TEST(CondVarStress, OversubscribedTokenRingPassesEveryTurn) {
  const std::unique_ptr<LockHandle> lock = MakeLockOrThrow("MUTEXEE");
  CondVar cv;
  const int threads = 2 * static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  constexpr int kTurnsPerThread = 100;
  int turn = 0;
  std::vector<std::thread> ring;
  for (int id = 0; id < threads; ++id) {
    ring.emplace_back([&, id] {
      for (int i = 0; i < kTurnsPerThread; ++i) {
        lock->lock();
        while (turn % threads != id) {
          cv.Wait(*lock);
        }
        std::this_thread::yield();
        turn = turn + 1;
        lock->unlock();
        cv.Broadcast();
      }
    });
  }
  for (auto& t : ring) {
    t.join();
  }
  EXPECT_EQ(turn, threads * kTurnsPerThread);
}

}  // namespace
}  // namespace lockin
