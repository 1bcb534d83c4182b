// Quickstart: the MUTEXEE lock as a drop-in mutex.
//
// Builds a MUTEXEE, protects a shared counter with std::lock_guard (the
// lock satisfies the standard BasicLockable protocol), and prints the
// handover statistics the paper's analysis revolves around: how many
// acquisitions were resolved by busy waiting vs by futex, and how many
// futex wakes the unlock grace window avoided.
//
//   $ ./quickstart
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "src/locks/mutexee.hpp"

int main() {
  lockin::MutexeeLock lock;  // paper defaults: 8000-cycle spin, 384-cycle grace
  long long counter = 0;

  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 100000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        std::lock_guard<lockin::MutexeeLock> guard(lock);
        counter = counter + 1;
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  const lockin::MutexeeLock::Stats stats = lock.GetStats();
  std::printf("counter               = %lld (expected %d)\n", counter,
              kThreads * kIncrementsPerThread);
  std::printf("acquisitions          = %llu\n", (unsigned long long)stats.acquires);
  std::printf("  via busy waiting    = %llu\n", (unsigned long long)stats.spin_handovers);
  std::printf("  via futex wake      = %llu\n", (unsigned long long)stats.futex_handovers);
  std::printf("futex wakes avoided   = %llu (unlock grace window)\n",
              (unsigned long long)stats.wake_skips);
  std::printf("futex handover ratio  = %.4f (mode switches to 'mutex' above 0.30)\n",
              stats.FutexHandoverRatio());
  std::printf("current mode          = %s\n",
              lock.mode() == lockin::MutexeeLock::Mode::kSpin ? "spin" : "mutex");
  return counter == kThreads * kIncrementsPerThread ? 0 : 1;
}
