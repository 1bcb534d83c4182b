#include "src/sim/waiting.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>

#include "src/sim/futex_model.hpp"
#include "src/sim/machine.hpp"
#include "src/stats/summary.hpp"

namespace lockin {

PowerBreakdownPoint PowerBreakdown(const PowerModel& model, int threads, VfSetting vf) {
  std::vector<ActivityState> states(model.topology().total_contexts(),
                                    ActivityState::kInactive);
  for (int i = 0; i < threads && i < static_cast<int>(states.size()); ++i) {
    states[i] = ActivityState::kWorking;
  }
  const std::vector<VfSetting> vfs(states.size(), vf);
  const PowerModel::Breakdown b = model.ComponentWatts(states, vfs);
  return PowerBreakdownPoint{threads, b.total(), b.package_w, b.cores_w, b.dram_w};
}

double WaitingCpi(ActivityState state) {
  // Paper, sections 4.1-4.2: global spinning's atomic takes ~530 cycles;
  // local spinning retires a load per cycle; pause raises CPI to 4.6; the
  // memory barrier serializes on the load's retirement (tens of cycles);
  // mwait executes no instructions while blocked.
  switch (state) {
    case ActivityState::kSpinGlobal:
      return 530.0;
    case ActivityState::kSpinLocal:
    case ActivityState::kSpinDvfsMin:
      return 1.0;
    case ActivityState::kSpinPause:
      return 4.6;
    case ActivityState::kSpinMbar:
      return 28.0;
    case ActivityState::kMwait:
      return 0.0;
    case ActivityState::kSleeping:
    case ActivityState::kDeepSleep:
    case ActivityState::kInactive:
      return 0.0;
    default:
      return 1.0;
  }
}

double WaitingPowerWatts(const PowerModel& model, int threads, ActivityState state) {
  std::vector<ActivityState> states(model.topology().total_contexts(),
                                    ActivityState::kInactive);
  for (int i = 0; i < threads && i < static_cast<int>(states.size()); ++i) {
    states[i] = state;
  }
  return model.TotalWatts(states);
}

// ---------------------------------------------------------------------------
// Figure 6: futex latency microbenchmark.
// ---------------------------------------------------------------------------
FutexLatencyPoint MeasureFutexLatency(std::uint64_t delay_cycles, int rounds) {
  SimEngine engine;
  SimMachine machine(&engine, Topology::PaperXeon(), PowerParams::PaperXeon(),
                     SimParams::PaperXeon());
  SimFutex futex(&machine);

  const int sleeper = machine.AddThread();
  const int waker = machine.AddThread();
  machine.Start(sleeper);
  machine.Start(waker);

  struct RoundState {
    SimTime wake_invoked_at = 0;
    double wake_call = 0;
    double turnaround = 0;
    bool wake_done = false;
    bool sleeper_awake = false;
  };

  std::vector<double> wake_samples;
  std::vector<double> turnaround_samples;
  int rounds_left = rounds;
  auto round_state = std::make_shared<RoundState>();

  // Forward declaration via std::function for the recursive round driver.
  std::function<void()> start_round;

  auto maybe_finish_round = [&]() {
    if (!round_state->wake_done || !round_state->sleeper_awake) {
      return;
    }
    wake_samples.push_back(round_state->wake_call);
    turnaround_samples.push_back(round_state->turnaround);
    if (--rounds_left > 0) {
      engine.Schedule(20000, [&] { start_round(); });
    }
  };

  start_round = [&]() {
    *round_state = RoundState{};
    // Sleeper invokes the sleep call now; waker invokes wake after `delay`.
    futex.Sleep(sleeper, 0, [&](SimFutex::WakeReason) {
      round_state->turnaround =
          static_cast<double>(engine.now() - round_state->wake_invoked_at);
      round_state->sleeper_awake = true;
      maybe_finish_round();
    });
    machine.RunFor(waker, delay_cycles, ActivityState::kWorking, [&] {
      round_state->wake_invoked_at = engine.now();
      futex.Wake(waker, 1, [&] {
        round_state->wake_call =
            static_cast<double>(engine.now() - round_state->wake_invoked_at);
        round_state->wake_done = true;
        maybe_finish_round();
      });
    });
  };

  start_round();
  engine.RunAll();

  FutexLatencyPoint point;
  point.delay_cycles = delay_cycles;
  point.wake_call_cycles = Median(wake_samples);
  point.turnaround_cycles = Median(turnaround_samples);
  return point;
}

// ---------------------------------------------------------------------------
// Section 4.4 table: power vs wake-up period.
// ---------------------------------------------------------------------------
SleepPowerPoint MeasureSleepPower(std::uint64_t period_cycles, std::uint64_t duration_cycles) {
  SimEngine engine;
  SimMachine machine(&engine, Topology::PaperXeon(), PowerParams::PaperXeon(),
                     SimParams::PaperXeon());
  SimFutex futex(&machine);

  const int sleeper = machine.AddThread();
  const int waker = machine.AddThread();
  machine.Start(sleeper);
  machine.Start(waker);

  std::function<void()> sleep_loop;
  std::function<void()> wake_loop;
  sleep_loop = [&]() {
    if (engine.now() >= duration_cycles) {
      return;
    }
    futex.Sleep(sleeper, 0, [&](SimFutex::WakeReason) { sleep_loop(); });
  };
  wake_loop = [&]() {
    if (engine.now() >= duration_cycles) {
      return;
    }
    // The paper's microbenchmark spins out the period between wake-ups
    // (a delay loop, not memory-intensive work).
    machine.RunFor(waker, period_cycles, ActivityState::kSpinPause, [&] {
      futex.Wake(waker, 1, [&] { wake_loop(); });
    });
  };
  sleep_loop();
  wake_loop();
  engine.RunUntil(duration_cycles);

  SleepPowerPoint point;
  point.period_cycles = period_cycles;
  point.watts = machine.Energy().average_watts();
  const SimFutex::Stats& stats = futex.stats();
  point.sleep_miss_ratio =
      stats.sleep_calls > 0
          ? static_cast<double>(stats.sleep_misses) / static_cast<double>(stats.sleep_calls)
          : 0.0;
  return point;
}

// ---------------------------------------------------------------------------
// Figure 7: sleep / spin / spin-then-sleep token passing.
// ---------------------------------------------------------------------------
namespace {

struct SsTDriver {
  SimEngine engine;
  std::unique_ptr<SimMachine> machine;
  std::unique_ptr<SimFutex> futex;
  std::uint64_t spin_quota = 0;
  std::uint64_t duration = 0;
  int threads = 0;
  std::uint64_t handovers = 0;
  std::vector<std::uint64_t> quota_left;
  int available_partner = -1;  // the second active thread, when idle
  bool token_stalled = false;  // token parked until a replacement wakes

  bool Done() const { return engine.now() >= duration; }

  std::uint64_t SpinHandoverCost(int active_threads) const {
    const SimParams& p = machine->params();
    std::uint64_t cost = 2 * p.line_transfer_cycles;
    if (active_threads > 2) {
      cost += p.burst_per_waiter_cycles * static_cast<std::uint64_t>(active_threads - 2);
    }
    return cost;
  }

  // Pure-futex chain ("sleep" series): the holder wakes the next thread and
  // goes to sleep; exactly one thread is active at a time.
  void FutexChainStep(int holder) {
    if (Done()) {
      return;
    }
    handovers++;
    futex->Wake(holder, 1, [this, holder] {
      if (Done()) {
        return;
      }
      futex->Sleep(holder, 0, [this, holder](SimFutex::WakeReason) {
        FutexChainStep(holder);
      });
    });
  }

  // Spin-only series: all threads busy-wait; token rotates round-robin.
  void SpinOnlyStep(int holder) {
    if (Done()) {
      return;
    }
    handovers++;
    const int next = (holder + 1) % threads;
    machine->RunFor(holder, SpinHandoverCost(threads), ActivityState::kSpinMbar,
                    [this, holder, next] {
                      machine->SetActivity(holder, ActivityState::kSpinMbar);
                      SpinOnlyStep(next);
                    });
  }

  // A previously sleeping thread is running again: it takes a stalled
  // token, parks as the available partner, or -- if it was woken spuriously
  // (a sleep miss from the other swapper's concurrent wake, or a partner
  // slot already filled) -- goes straight back to sleep.
  void OnSwappedIn(int tid) {
    if (Done()) {
      return;
    }
    if (token_stalled) {
      token_stalled = false;
      machine->SetActivity(tid, ActivityState::kSpinMbar);
      SsStep(tid);
      return;
    }
    if (available_partner < 0) {
      machine->SetActivity(tid, ActivityState::kSpinMbar);
      available_partner = tid;
      return;
    }
    futex->Sleep(tid, 0, [this, tid](SimFutex::WakeReason) { OnSwappedIn(tid); });
  }

  // ss-T: two active threads hand over in user space; after T handovers a
  // thread wakes a sleeper to replace itself and goes to sleep.
  void SsStep(int holder) {
    if (Done()) {
      return;
    }
    if (quota_left[holder] == 0) {
      // Quota exhausted: wake a replacement, hand the token to the partner
      // (or stall until the replacement arrives), and go to sleep.
      quota_left[holder] = spin_quota;
      handovers++;
      futex->Wake(holder, 1, [this, holder] {
        const int partner = available_partner;
        available_partner = -1;
        futex->Sleep(holder, 0,
                     [this, holder](SimFutex::WakeReason) { OnSwappedIn(holder); });
        if (partner >= 0) {
          machine->RunFor(partner, SpinHandoverCost(2), ActivityState::kSpinMbar,
                          [this, partner] { SsStep(partner); });
        } else {
          token_stalled = true;  // resumed by the next OnSwappedIn
        }
      });
      return;
    }
    const int partner = available_partner;
    if (partner < 0) {
      // No partner yet (replacement still waking): spin in place without
      // consuming quota -- these are not lock handovers.
      machine->RunFor(holder, SpinHandoverCost(2), ActivityState::kSpinMbar,
                      [this, holder] { SsStep(holder); });
      return;
    }
    quota_left[holder]--;
    handovers++;
    available_partner = holder;
    machine->RunFor(holder, SpinHandoverCost(2), ActivityState::kSpinMbar,
                    [this, partner] { SsStep(partner); });
  }
};

}  // namespace

SpinThenSleepPoint MeasureSpinThenSleep(int threads, std::uint64_t spin_quota,
                                        std::uint64_t duration_cycles) {
  SsTDriver driver;
  driver.machine = std::make_unique<SimMachine>(&driver.engine, Topology::PaperXeon(),
                                                PowerParams::PaperXeon(), SimParams::PaperXeon());
  driver.futex = std::make_unique<SimFutex>(driver.machine.get());
  driver.spin_quota = spin_quota;
  driver.duration = duration_cycles;
  driver.threads = threads;
  driver.quota_left.assign(static_cast<std::size_t>(threads),
                           spin_quota == kSpinOnly ? 0 : spin_quota);

  for (int t = 0; t < threads; ++t) {
    driver.machine->AddThread();
  }
  for (int t = 0; t < threads; ++t) {
    driver.machine->Start(t);
  }

  if (spin_quota == kSpinOnly || threads == 1) {
    for (int t = 0; t < threads; ++t) {
      driver.machine->SetActivity(t, ActivityState::kSpinMbar);
    }
    driver.SpinOnlyStep(0);
  } else if (spin_quota == 0) {
    // "sleep" series: all but thread 0 start asleep.
    for (int t = 1; t < threads; ++t) {
      driver.futex->Sleep(t, 0, [&driver, t](SimFutex::WakeReason) {
        driver.FutexChainStep(t);
      });
    }
    // Let every sleep call clear the kernel bucket before the chain starts,
    // otherwise the first wake would hit an entering sleeper (sleep miss)
    // and fork the chain.
    const std::uint64_t warmup = static_cast<std::uint64_t>(threads) * 3000 + 10000;
    driver.engine.Schedule(warmup, [&driver] { driver.FutexChainStep(0); });
  } else {
    // ss-T: threads 0 and 1 active, rest asleep.
    for (int t = 2; t < threads; ++t) {
      driver.futex->Sleep(t, 0,
                          [&driver, t](SimFutex::WakeReason) { driver.OnSwappedIn(t); });
    }
    driver.available_partner = threads > 1 ? 1 : -1;
    if (threads > 1) {
      driver.machine->SetActivity(1, ActivityState::kSpinMbar);
    }
    const std::uint64_t warmup = static_cast<std::uint64_t>(threads) * 3000 + 10000;
    driver.engine.Schedule(warmup, [&driver] { driver.SsStep(0); });
  }

  driver.engine.RunUntil(duration_cycles);

  SpinThenSleepPoint point;
  point.threads = threads;
  point.spin_quota = spin_quota;
  point.watts = driver.machine->Energy().average_watts();
  point.handovers_per_s = static_cast<double>(driver.handovers) /
                          (static_cast<double>(duration_cycles) /
                           SimParams::PaperXeon().cycles_per_second);
  return point;
}

}  // namespace lockin
