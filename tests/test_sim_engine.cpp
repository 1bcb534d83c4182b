// Event-engine tests: ordering, cancellation, determinism, pool recycling.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/engine.hpp"

namespace lockin {
namespace {

TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.Schedule(30, [&] { order.push_back(3); });
  engine.Schedule(10, [&] { order.push_back(1); });
  engine.Schedule(20, [&] { order.push_back(2); });
  engine.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30u);
}

TEST(SimEngine, FifoAmongEqualTimestamps) {
  SimEngine engine;
  std::vector<int> order;
  engine.Schedule(5, [&] { order.push_back(1); });
  engine.Schedule(5, [&] { order.push_back(2); });
  engine.Schedule(5, [&] { order.push_back(3); });
  engine.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimEngine, NestedScheduling) {
  SimEngine engine;
  std::vector<SimTime> times;
  engine.Schedule(10, [&] {
    times.push_back(engine.now());
    engine.Schedule(5, [&] { times.push_back(engine.now()); });
  });
  engine.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimEngine, CancelPreventsExecution) {
  SimEngine engine;
  bool ran = false;
  const EventId id = engine.Schedule(10, [&] { ran = true; });
  engine.Cancel(id);
  engine.RunAll();
  EXPECT_FALSE(ran);
}

TEST(SimEngine, CancelIsIdempotentAndSelective) {
  SimEngine engine;
  int runs = 0;
  const EventId a = engine.Schedule(10, [&] { ++runs; });
  engine.Schedule(20, [&] { ++runs; });
  engine.Cancel(a);
  engine.Cancel(a);
  engine.RunAll();
  EXPECT_EQ(runs, 1);
}

// Regression: cancelling events that already ran (or stale/bogus handles)
// must not accumulate tombstones or corrupt the pending count. The original
// engine inserted every cancelled id into an unordered_set unconditionally,
// so a long-running workload that cancels already-fired timers (quantum
// timers, futex timeouts) grew that set without bound and pending_events()
// underflowed.
TEST(SimEngine, CancelAfterExecutionDoesNotAccumulate) {
  SimEngine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(engine.Schedule(static_cast<SimTime>(i), [] {}));
  }
  engine.RunAll();
  for (const EventId id : ids) {
    engine.Cancel(id);  // every one of these already ran
    engine.Cancel(id);
  }
  EXPECT_EQ(engine.cancel_backlog(), 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.executed_events(), 1000u);
}

TEST(SimEngine, CancelOfUnknownHandleIsNoOp) {
  SimEngine engine;
  engine.Cancel(0);
  engine.Cancel(123456789u);
  bool ran = false;
  engine.Schedule(5, [&] { ran = true; });
  EXPECT_EQ(engine.cancel_backlog(), 0u);
  engine.RunAll();
  EXPECT_TRUE(ran);
}

TEST(SimEngine, CancelBacklogDrainsLazily) {
  SimEngine engine;
  const EventId id = engine.Schedule(10, [] {});
  engine.Schedule(20, [] {});
  engine.Cancel(id);
  EXPECT_EQ(engine.cancel_backlog(), 1u);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.RunAll();
  EXPECT_EQ(engine.cancel_backlog(), 0u);
  EXPECT_EQ(engine.executed_events(), 1u);
}

TEST(SimEngine, RunUntilStopsAtBoundary) {
  SimEngine engine;
  int runs = 0;
  engine.Schedule(10, [&] { ++runs; });
  engine.Schedule(100, [&] { ++runs; });
  engine.RunUntil(50);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(engine.now(), 50u);
  engine.RunUntil(200);
  EXPECT_EQ(runs, 2);
}

TEST(SimEngine, RunUntilAdvancesClockWithNoEvents) {
  SimEngine engine;
  engine.RunUntil(1234);
  EXPECT_EQ(engine.now(), 1234u);
}

TEST(SimEngine, ExecutedEventCount) {
  SimEngine engine;
  for (int i = 0; i < 5; ++i) {
    engine.Schedule(static_cast<SimTime>(i), [] {});
  }
  engine.RunAll();
  EXPECT_EQ(engine.executed_events(), 5u);
}

TEST(SimEngine, SlotReuseInvalidatesOldHandles) {
  SimEngine engine;
  int runs = 0;
  const EventId first = engine.Schedule(10, [&] { ++runs; });
  engine.RunAll();
  // The slot is recycled: the next event likely lands in the same slot but
  // carries a new generation, so cancelling the stale handle must not kill
  // the new event.
  engine.Schedule(10, [&] { ++runs; });
  engine.Cancel(first);
  engine.RunAll();
  EXPECT_EQ(runs, 2);
}

// The schedule pattern the machine and futex models generate: self-
// rescheduling chains with near-monotonic delays, each step re-arming a
// companion timeout that is cancelled before it fires.
struct TimeoutChains {
  SimEngine engine;
  std::uint64_t remaining = 0;
  std::vector<EventId> timeout;

  explicit TimeoutChains(int chains) : timeout(static_cast<std::size_t>(chains), 0) {}
  // Scheduled callbacks hold `this`.
  TimeoutChains(const TimeoutChains&) = delete;
  TimeoutChains& operator=(const TimeoutChains&) = delete;

  // Runs `steps` chain steps in all, then winds the chains down.
  void Run(std::uint64_t steps) {
    remaining = steps;
    for (std::size_t c = 0; c < timeout.size(); ++c) {
      engine.Schedule(static_cast<SimTime>(c) * 97, [this, c] { Step(c); });
    }
    engine.RunAll();
  }

  void Step(std::size_t chain) {
    if (timeout[chain] != 0) {
      engine.Cancel(timeout[chain]);
      timeout[chain] = 0;
    }
    if (remaining == 0) {
      return;
    }
    --remaining;
    timeout[chain] = engine.Schedule(50000, [this, chain] { timeout[chain] = 0; });
    engine.Schedule(100 + static_cast<SimTime>(chain) * 13, [this, chain] { Step(chain); });
  }
};

void ExpectPoolsUnchanged(const SimEngine::PoolStats& before, const SimEngine::PoolStats& after) {
  EXPECT_EQ(after.slab_blocks, before.slab_blocks);
  EXPECT_EQ(after.queue_capacity, before.queue_capacity);
  EXPECT_EQ(after.slot_capacity, before.slot_capacity);
  EXPECT_EQ(after.heap_spills, before.heap_spills);
}

TEST(SimEngine, SteadyStateRecyclesSlots) {
  // Warm the pool, then verify a sustained schedule/run cycle allocates
  // nothing new (slab count, slot and queue capacity and spill count all
  // frozen), for each of two schedule patterns.
  {
    SCOPED_TRACE("one self-rescheduling chain");
    SimEngine engine;
    std::uint64_t executed = 0;
    std::function<void()> reschedule;  // drives a self-rescheduling chain
    std::uint64_t remaining = 50000;
    reschedule = [&] {
      ++executed;
      if (--remaining > 0) {
        engine.Schedule(5, [&] { reschedule(); });
      }
    };
    engine.Schedule(1, [&] { reschedule(); });
    engine.RunUntil(10 * 5);  // warm up a few events
    const SimEngine::PoolStats before = engine.pool_stats();
    engine.RunAll();
    EXPECT_EQ(executed, 50000u);
    ExpectPoolsUnchanged(before, engine.pool_stats());
  }
  {
    SCOPED_TRACE("40 chains with cancelled timeouts");
    TimeoutChains chains(40);
    chains.Run(125000);  // warm-up: sizes the slabs and the heap
    const SimEngine::PoolStats before = chains.engine.pool_stats();
    const std::uint64_t executed_before = chains.engine.executed_events();
    chains.Run(500000);
    // Every step, plus one wind-down step per chain.
    EXPECT_EQ(chains.engine.executed_events() - executed_before, 500040u);
    ExpectPoolsUnchanged(before, chains.engine.pool_stats());
  }
}

TEST(SimEngine, CountsHeapSpillsForOversizedClosures) {
  SimEngine engine;
  struct Fat {
    unsigned char payload[512] = {};
  };
  Fat fat;
  bool ran = false;
  engine.Schedule(1, [fat, &ran] {
    (void)fat;
    ran = true;
  });
  EXPECT_EQ(engine.pool_stats().heap_spills, 1u);
  engine.RunAll();
  EXPECT_TRUE(ran);
  // Small closures stay inline: no further spills.
  engine.Schedule(1, [&ran] { ran = !ran; });
  engine.RunAll();
  EXPECT_EQ(engine.pool_stats().heap_spills, 1u);
}

TEST(SimEngine, DeterministicAcrossRuns) {
  auto run = []() {
    SimEngine engine;
    std::vector<SimTime> trace;
    // A little self-scheduling cascade.
    std::function<void(int)> step = [&](int depth) {
      trace.push_back(engine.now());
      if (depth > 0) {
        engine.Schedule(7, [&step, depth] { step(depth - 1); });
        engine.Schedule(3, [&step, depth] { step(depth - 2); });
      }
    };
    engine.Schedule(1, [&] { step(6); });
    engine.RunAll();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace lockin
