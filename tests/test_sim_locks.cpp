// Simulated-lock tests: ownership token invariants (parameterized over all
// algorithms) and the paper's qualitative orderings that the figure benches
// rely on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/locks/lock_registry.hpp"
#include "src/sim/workload.hpp"

namespace lockin {
namespace {

// --- Ownership invariant, per algorithm -------------------------------------

class SimLockParamTest : public ::testing::TestWithParam<std::string> {};

// Drives one simulated lock with N threads directly (no workload driver)
// and checks that ownership is exclusive and every acquire completes with a
// matching release.
TEST_P(SimLockParamTest, OwnershipIsExclusive) {
  SimEngine engine;
  SimMachine machine(&engine, Topology::PaperXeon(), PowerParams::PaperXeon(),
                     SimParams::PaperXeon());
  auto lock = MakeSimLock(GetParam(), &machine);
  ASSERT_NE(lock, nullptr);

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  int inside = 0;
  bool violation = false;
  int completed = 0;

  std::function<void(int, int)> loop = [&](int tid, int rounds) {
    if (rounds == 0) {
      return;
    }
    lock->Acquire(tid, [&, tid, rounds] {
      if (++inside != 1) {
        violation = true;
      }
      machine.RunFor(tid, 500, ActivityState::kCritical, [&, tid, rounds] {
        --inside;
        ++completed;
        lock->Release(tid, [&, tid, rounds] {
          machine.RunFor(tid, 200, ActivityState::kWorking,
                         [&, tid, rounds] { loop(tid, rounds - 1); });
        });
      });
    });
  };

  for (int t = 0; t < kThreads; ++t) {
    machine.AddThread();
  }
  for (int t = 0; t < kThreads; ++t) {
    machine.Start(t);
    loop(t, kRounds);
  }
  engine.RunAll();

  EXPECT_FALSE(violation);
  EXPECT_EQ(completed, kThreads * kRounds);
  EXPECT_EQ(lock->stats().acquires, static_cast<std::uint64_t>(kThreads * kRounds));
}

TEST_P(SimLockParamTest, WorkloadConservesAcquires) {
  WorkloadConfig config;
  config.threads = 6;
  config.locks = 2;
  config.cs_cycles = 800;
  config.non_cs_cycles = 400;
  config.duration_cycles = 5'000'000;
  const WorkloadResult result = RunLockWorkload(GetParam(), config);
  EXPECT_GT(result.total_acquires, 0u);
  // Lock-side acquires may exceed driver-side completions by the in-flight
  // tail at cutoff, but never by more than the thread count.
  EXPECT_GE(result.lock_stats.acquires, result.total_acquires);
  EXPECT_LE(result.lock_stats.acquires, result.total_acquires + 6);
  // Handover kinds partition acquires.
  EXPECT_EQ(result.lock_stats.acquires,
            result.lock_stats.spin_handovers + result.lock_stats.futex_handovers +
                result.lock_stats.timeout_handovers);
}

INSTANTIATE_TEST_SUITE_P(AllSimLocks, SimLockParamTest,
                         ::testing::Values("MUTEX", "TAS", "TTAS", "TICKET", "MCS", "CLH",
                                           "MUTEXEE"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// MakeLockOrThrow's contract: an unknown name, or a native-only one such as
// PTHREAD, throws instead of handing the driver a null lock.
TEST(SimLockFactory, UnknownNamesThrow) {
  WorkloadConfig config;
  config.threads = 2;
  config.duration_cycles = 100'000;
  for (const char* name : {"NOPE", "PTHREAD"}) {
    EXPECT_THROW(RunLockWorkload(name, config), std::invalid_argument) << name;
    EXPECT_THROW(RunPhasedLockWorkload(name, config, {WorkloadPhase{}}), std::invalid_argument)
        << name;
  }
}

// The native registry and the simulator name the same locks: every
// registered name simulates except PTHREAD, the glibc lock, which is
// native-only.
TEST(SimLockFactory, SimulatesEveryRegisteredLockButPthread) {
  WorkloadConfig config;
  config.threads = 2;
  config.duration_cycles = 1'000'000;
  for (const std::string& name : RegisteredLockNames()) {
    if (name == "PTHREAD") {
      EXPECT_THROW(RunLockWorkload(name, config), std::invalid_argument);
    } else {
      EXPECT_GT(RunLockWorkload(name, config).total_acquires, 0u) << name;
    }
  }
}

// --- Paper orderings ---------------------------------------------------------

WorkloadResult RunSweep(const std::string& lock, int threads, std::uint64_t cs,
                   std::uint64_t non_cs = 100, std::uint64_t duration = 28'000'000) {
  WorkloadConfig config;
  config.threads = threads;
  config.cs_cycles = cs;
  config.non_cs_cycles = non_cs;
  config.duration_cycles = duration;
  return RunLockWorkload(lock, config);
}

TEST(SimLockOrdering, SingleThreadMatchesTable2) {
  // Table 2 of the paper (throughput in Macq/s, cs = 100 cycles):
  //   MUTEX 11.88, TAS 16.88, TTAS 16.98, TICKET 16.97, MCS 12.04,
  //   MUTEXEE 13.32. Simple locks beat the complex ones; tolerances 10%.
  const double mutex = RunSweep("MUTEX", 1, 100, 0).ThroughputM();
  const double tas = RunSweep("TAS", 1, 100, 0).ThroughputM();
  const double ticket = RunSweep("TICKET", 1, 100, 0).ThroughputM();
  const double mcs = RunSweep("MCS", 1, 100, 0).ThroughputM();
  const double mutexee = RunSweep("MUTEXEE", 1, 100, 0).ThroughputM();
  EXPECT_NEAR(mutex, 11.88, 1.2);
  EXPECT_NEAR(tas, 16.88, 1.7);
  EXPECT_NEAR(ticket, 16.97, 1.7);
  EXPECT_NEAR(mcs, 12.04, 1.2);
  EXPECT_NEAR(mutexee, 13.32, 1.4);
  // Uncontested: throughput and TPP trends are identical (section 5.2).
  EXPECT_GT(tas, mutexee);
  EXPECT_GT(mutexee, mutex);
}

TEST(SimLockOrdering, ContendedMcsBeatsTicketBeatsTas) {
  // Figure 11 at full-but-not-over subscription: queue locks avoid the
  // release burst; TAS suffers the atomic storm.
  const double mcs = RunSweep("MCS", 20, 1000).throughput_per_s;
  const double ticket = RunSweep("TICKET", 20, 1000).throughput_per_s;
  const double tas = RunSweep("TAS", 20, 1000).throughput_per_s;
  EXPECT_GE(mcs, ticket * 0.99);
  EXPECT_GT(ticket, tas * 1.05);
}

TEST(SimLockOrdering, MutexLosesThroughputUnderContention) {
  const double mutex = RunSweep("MUTEX", 20, 1000).throughput_per_s;
  const double ticket = RunSweep("TICKET", 20, 1000).throughput_per_s;
  EXPECT_LT(mutex, ticket * 0.85);
}

TEST(SimLockOrdering, MutexeeBeatsMutexInThroughputAndTpp) {
  // The paper's core result (Figure 8 / section 5.1 table). The margin is
  // 1.2x: since the futex model gained glibc's pre-sleep exchange (a waiter
  // whose spin expired right after a release acquires in user space instead
  // of sleeping), simulated MUTEX no longer loses those handovers and sits
  // ~23% behind MUTEXEE here -- in line with the paper's average 28% gap
  // across configurations.
  const WorkloadResult mutex = RunSweep("MUTEX", 20, 2000);
  const WorkloadResult mutexee = RunSweep("MUTEXEE", 20, 2000);
  EXPECT_GT(mutexee.throughput_per_s, mutex.throughput_per_s * 1.2);
  EXPECT_GT(mutexee.tpp, mutex.tpp * 1.2);
  EXPECT_LT(mutexee.average_watts, mutex.average_watts * 1.05);
}

TEST(SimLockOrdering, MutexeePaysTailLatencyForEfficiency) {
  // Unfairness: MUTEXEE parks sleepers for essentially the whole run (the
  // paper's 99.99th percentiles reach hundreds of Mcycles in Figure 9).
  const WorkloadResult mutex = RunSweep("MUTEX", 20, 1000);
  const WorkloadResult mutexee = RunSweep("MUTEXEE", 20, 1000);
  EXPECT_GT(mutexee.acquire_latency_cycles.P9999(), 1'000'000u);
  // ...while its p95 is far lower (fast user-space handovers; Figure 9
  // shows MUTEXEE's much lower 95th percentile for short critical sections).
  EXPECT_LT(mutexee.acquire_latency_cycles.P95(), mutex.acquire_latency_cycles.P95());
}

TEST(SimLockOrdering, FairLocksCollapseWhenOversubscribed) {
  // Figure 11 beyond 40 threads: "TICKET and MCS, the two fair locks,
  // suffer the most."
  const double ticket40 = RunSweep("TICKET", 40, 1000).throughput_per_s;
  const double ticket60 = RunSweep("TICKET", 60, 1000).throughput_per_s;
  EXPECT_LT(ticket60, ticket40 * 0.2);
  const double mutexee60 = RunSweep("MUTEXEE", 60, 1000).throughput_per_s;
  EXPECT_GT(mutexee60, ticket60 * 5);
}

TEST(SimLockOrdering, MutexeeKeepsHandoversFutexFree) {
  const WorkloadResult result = RunSweep("MUTEXEE", 20, 1000);
  const double futex_ratio =
      static_cast<double>(result.lock_stats.futex_handovers) /
      static_cast<double>(result.lock_stats.acquires);
  EXPECT_LT(futex_ratio, 0.05);
  // MUTEX, in contrast, churns futex calls.
  const WorkloadResult mutex = RunSweep("MUTEX", 20, 1000);
  EXPECT_GT(mutex.futex_stats.wake_calls, result.futex_stats.wake_calls * 10);
}

TEST(SimLockOrdering, MutexeePowerBelowSpinlocks) {
  // Sleeping long saves power (section 4.4): MUTEXEE's waiters sleep while
  // a spinlock keeps every context hot.
  const WorkloadResult mutexee = RunSweep("MUTEXEE", 30, 1000);
  const WorkloadResult ticket = RunSweep("TICKET", 30, 1000);
  EXPECT_LT(mutexee.average_watts, ticket.average_watts * 0.75);
}

TEST(SimLockOrdering, TimeoutBoundsTailLatency) {
  // Figure 10: short timeouts trade throughput for bounded tails.
  WorkloadEnv env;
  env.lock_options.mutexee.sleep_timeout_ns = 100'000;  // 0.1 ms
  WorkloadConfig config;
  config.threads = 20;
  config.cs_cycles = 2000;
  config.non_cs_cycles = 100;
  config.duration_cycles = 28'000'000;
  const WorkloadResult with_timeout = RunLockWorkload("MUTEXEE-TO", config, env);
  const WorkloadResult without = RunLockWorkload("MUTEXEE", config, env);
  EXPECT_LT(with_timeout.acquire_latency_cycles.max(),
            without.acquire_latency_cycles.max());
  EXPECT_LT(with_timeout.throughput_per_s, without.throughput_per_s);
}

TEST(SimLockOrdering, MutexeeToDefaultsToTheSection51Timeout) {
  // Without a caller's timeout, MUTEXEE-TO sleeps with the native lock's
  // 4 ms (MutexeeLock::kToSleepTimeoutNs) and so differs from MUTEXEE.
  WorkloadConfig config;
  config.threads = 20;
  config.cs_cycles = 2000;
  config.non_cs_cycles = 100;
  config.duration_cycles = 28'000'000;
  WorkloadEnv four_ms;
  four_ms.lock_options.mutexee.sleep_timeout_ns = MutexeeLock::kToSleepTimeoutNs;
  const WorkloadResult by_default = RunLockWorkload("MUTEXEE-TO", config);
  const WorkloadResult explicit_timeout = RunLockWorkload("MUTEXEE-TO", config, four_ms);
  const WorkloadResult plain = RunLockWorkload("MUTEXEE", config);
  EXPECT_GT(by_default.futex_stats.timeouts, 0u);
  EXPECT_EQ(plain.futex_stats.timeouts, 0u);
  EXPECT_EQ(by_default.futex_stats.timeouts, explicit_timeout.futex_stats.timeouts);
  EXPECT_EQ(by_default.total_acquires, explicit_timeout.total_acquires);
  EXPECT_EQ(by_default.acquire_latency_cycles.max(), explicit_timeout.acquire_latency_cycles.max());
}

TEST(SimLockOrdering, MutexeeToCountsEveryAcquireAfterATimeout) {
  // As native MutexeeLock::lock does, an acquire after a timed-out futex
  // sleep is a timeout handover, even when the lock was held at the timeout
  // and a later release handed it over to the then-spinning waiter.
  WorkloadConfig config;
  config.threads = 20;
  config.cs_cycles = 2000;
  config.non_cs_cycles = 100;
  config.duration_cycles = 140'000'000;
  const WorkloadResult r = RunLockWorkload("MUTEXEE-TO", config);
  const std::uint64_t timeouts = r.futex_stats.timeouts;
  const std::uint64_t handovers = r.lock_stats.timeout_handovers;
  EXPECT_GT(handovers, 0u);
  EXPECT_LE(handovers, timeouts);
  // Waiters that timed out may still be spinning at the cutoff.
  EXPECT_LE(timeouts - handovers, static_cast<std::uint64_t>(config.threads));
}

TEST(SimLockOrdering, GraceWindowAblation) {
  // Disabling MUTEXEE's unlock grace window reintroduces futex wakes (the
  // paper's sensitivity analysis: power back to MUTEX-like levels).
  WorkloadEnv no_grace;
  no_grace.lock_options.mutexee.enable_unlock_grace = false;
  WorkloadConfig config;
  config.threads = 20;
  config.cs_cycles = 1000;
  config.non_cs_cycles = 100;
  config.duration_cycles = 28'000'000;
  const WorkloadResult without_grace = RunLockWorkload("MUTEXEE", config, no_grace);
  const WorkloadResult with_grace = RunLockWorkload("MUTEXEE", config);
  EXPECT_GE(without_grace.futex_stats.wake_calls, with_grace.futex_stats.wake_calls);
}

}  // namespace
}  // namespace lockin
