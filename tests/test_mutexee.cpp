// MUTEXEE-specific behaviour: Table 1 protocol, statistics, mode
// adaptation, the unlock grace window and the fairness timeout.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/locks/mutexee.hpp"
#include "src/platform/cycles.hpp"
#include "tests/lock_probe.hpp"

namespace lockin {
namespace {

TEST(Mutexee, DefaultConfigMatchesPaper) {
  // Table 1 / section 5.1: ~8000-cycle spin with mfence, ~384-cycle unlock
  // grace; mutex mode ~256 / ~128; mode switch at >30% futex handovers.
  MutexeeLock lock;
  EXPECT_EQ(lock.config().spin_mode_lock_cycles, 8000u);
  EXPECT_EQ(lock.config().spin_mode_grace_cycles, 384u);
  EXPECT_EQ(lock.config().mutex_mode_lock_cycles, 256u);
  EXPECT_EQ(lock.config().mutex_mode_grace_cycles, 128u);
  EXPECT_DOUBLE_EQ(lock.config().futex_ratio_threshold, 0.30);
  EXPECT_EQ(lock.config().sleep_timeout_ns, 0u);  // timeouts off by default
  EXPECT_EQ(lock.mode(), MutexeeLock::Mode::kSpin);
}

TEST(Mutexee, UncontestedAcquiresAreSpinHandovers) {
  MutexeeLock lock;
  for (int i = 0; i < 100; ++i) {
    lock.lock();
    lock.unlock();
  }
  const MutexeeLock::Stats stats = lock.GetStats();
  EXPECT_EQ(stats.acquires, 100u);
  EXPECT_EQ(stats.spin_handovers, 100u);
  EXPECT_EQ(stats.futex_handovers, 0u);
  EXPECT_EQ(lock.futex_stats().wake_calls.load(), 0u);
}

TEST(Mutexee, CountsEveryAcquireAcrossAdaptWindows) {
  // The holder counts acquires in an open window that Adapt() closes every
  // kAdaptPeriod acquires; GetStats() adds the closed windows to the open
  // one.
  MutexeeLock lock;
  constexpr std::uint64_t kPairs = 3 * MutexeeLock::kAdaptPeriod + 8;
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    lock.lock();
    lock.unlock();
  }
  const MutexeeLock::Stats stats = lock.GetStats();
  EXPECT_EQ(stats.acquires, kPairs);
  EXPECT_EQ(stats.spin_handovers, stats.acquires);
  EXPECT_EQ(stats.futex_handovers, 0u);
  EXPECT_EQ(stats.timeout_handovers, 0u);
  EXPECT_EQ(stats.mode_switches, 0u);
}

TEST(Mutexee, HeldLockKeepsOtherThreadOut) {
  MutexeeLock lock;
  EXPECT_FALSE(EntersWhileHeld(lock));
  // The holder and the thread it kept out, which took the lock after the
  // release.
  EXPECT_EQ(lock.GetStats().acquires, 2u);
}

TEST(Mutexee, MutualExclusion) {
  MutexeeLock lock;
  long long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, 12000);
}

TEST(Mutexee, SpinHandoversDominateUnderShortCriticalSections) {
  // The defining claim: for short critical sections MUTEXEE keeps most
  // handovers futex-free (section 5.1).
  MutexeeLock lock;
  long long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const MutexeeLock::Stats stats = lock.GetStats();
  EXPECT_EQ(stats.acquires, 20000u);
  EXPECT_GT(stats.spin_handovers, stats.futex_handovers);
  EXPECT_LT(stats.FutexHandoverRatio(), 0.30);
}

TEST(Mutexee, TimeoutWakesSleeperEventually) {
  MutexeeConfig config;
  config.sleep_timeout_ns = 2'000'000;  // 2 ms
  config.spin_mode_lock_cycles = 200;   // sleep fast
  MutexeeLock lock(config);

  lock.lock();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    lock.lock();
    acquired.store(true);
    lock.unlock();
  });
  // Hold long enough that the waiter must sleep, time out, and then spin.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lock.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  // The waiter either timed out (then spun) or was woken by the unlock;
  // with a 2 ms timeout and a 20 ms hold it must have timed out at least once.
  EXPECT_GE(lock.futex_stats().timeouts.load(), 1u);
}

TEST(Mutexee, GraceWindowSkipsWakes) {
  // With the grace window on and constant pressure from a second thread,
  // some unlocks should detect the user-space grab and skip the futex wake:
  // wake_skips > 0 or zero wake calls at all.
  MutexeeConfig config;
  config.spin_mode_lock_cycles = 200000;  // spin long enough to never sleep
  MutexeeLock lock(config);
  long long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4000; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, 8000);
  // Ideally nobody slept (budget >> critical section) and the sleeper-count
  // fast path means zero futex wakes. The portable contract: with no real
  // sleeps, wakes can only come from the transient sleeper-advertisement
  // window (increment -> CAS-grab without waiting), and each one needs an
  // independent preemption spanning the grace window -- so they stay a tiny
  // fraction of the 8000 acquires. A broken sleeper-count/grace path would
  // wake on every contended unlock and blow the bound. Once a waiter truly
  // sleeps (preempted past the spin budget -- routine under sanitizers on a
  // small host), repeated wakes against the still-descheduled sleeper are
  // legitimate MUTEXEE behavior, so no wake bound applies.
  const std::uint64_t sleeps = lock.futex_stats().sleeps.load();
  const std::uint64_t wakes = lock.futex_stats().wake_calls.load();
  if (sleeps == 0) {
    EXPECT_LE(wakes, 80u) << "wake storm without any real futex sleeps; "
                          << "wake_skips=" << lock.GetStats().wake_skips;
  }
}

TEST(Mutexee, AblationNoGraceStillCorrect) {
  MutexeeConfig config;
  config.enable_unlock_grace = false;
  config.spin_mode_lock_cycles = 500;
  MutexeeLock lock(config);
  long long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
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
  EXPECT_EQ(counter, 8000);
}

TEST(Mutexee, ModeSwitchesToMutexUnderFutexChurn) {
  // Force futex handovers: minuscule spin budget, long critical sections.
  MutexeeConfig config;
  config.spin_mode_lock_cycles = 50;
  config.mutex_mode_lock_cycles = 50;
  // On small hosts the unlocking thread often re-acquires before sleepers
  // run, keeping the futex-handover ratio low; any futex traffic at all
  // should flip the mode, so one futex handover in an adaptation window
  // must exceed the threshold.
  config.futex_ratio_threshold = 0.5 / MutexeeLock::kAdaptPeriod;
  MutexeeLock lock(config);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 800; ++i) {
        lock.lock();
        SpinForCycles(20000);  // long critical section forces sleeping
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const MutexeeLock::Stats stats = lock.GetStats();
  EXPECT_GT(stats.futex_handovers, 0u);
  // With >30% futex handovers sustained, the lock must have adapted at
  // least once to mutex mode.
  EXPECT_GT(stats.mode_switches, 0u);
}

TEST(Mutexee, HandoversAddUpToLockCallsUnderFutexChurn) {
  // The shape of ModeSwitchesToMutexUnderFutexChurn: every lock() call is
  // one acquire, and every acquire is exactly one kind of handover.
  MutexeeConfig config;
  config.spin_mode_lock_cycles = 50;
  config.mutex_mode_lock_cycles = 50;
  MutexeeLock lock(config);
  constexpr int kThreads = 4;
  constexpr int kIters = 600;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        SpinForCycles(20000);
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const MutexeeLock::Stats stats = lock.GetStats();
  EXPECT_EQ(stats.acquires, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.spin_handovers + stats.futex_handovers + stats.timeout_handovers,
            stats.acquires);
}

// Stress cases (the `stress` ctest label reruns every *Stress* test):
// twice as many threads as CPUs, each holding the lock across a yield or a
// short sleep, so the lock changes hands while waiters spin, sleep and
// time out. A reader polls GetStats() throughout: the counters it reads
// are being written by the holders.
void RunStatsStress(const MutexeeConfig& config, int iters, int sleep_every) {
  MutexeeLock lock(config);
  const int threads = 2 * static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const std::uint64_t total = static_cast<std::uint64_t>(threads) * iters;
  long long counter = 0;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad_reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const MutexeeLock::Stats s = lock.GetStats();
      if (s.spin_handovers > s.acquires || s.acquires > total + MutexeeLock::kAdaptPeriod) {
        bad_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::atomic<int> started{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      started.fetch_add(1);
      while (started.load() < threads) {
        std::this_thread::yield();
      }
      for (int i = 0; i < iters; ++i) {
        lock.lock();
        counter = counter + 1;
        if (i % sleep_every == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
          std::this_thread::yield();
        }
        lock.unlock();
      }
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(counter, static_cast<long long>(total));
  EXPECT_EQ(bad_reads.load(), 0u);
  const MutexeeLock::Stats stats = lock.GetStats();
  EXPECT_EQ(stats.acquires, total);
  EXPECT_EQ(stats.spin_handovers + stats.futex_handovers + stats.timeout_handovers, total);
}

TEST(MutexeeStress, StatsAddUpUnderOversubscribedHandovers) {
  RunStatsStress(MutexeeConfig{}, 300, 40);
}

TEST(MutexeeStress, TimeoutHandoversAddUpUnderOversubscription) {
  // A 20 us sleep timeout against 50 us holds: sleepers time out and spin.
  MutexeeConfig config;
  config.sleep_timeout_ns = 20'000;
  config.spin_mode_lock_cycles = 2000;
  RunStatsStress(config, 40, 8);
}

}  // namespace
}  // namespace lockin
