#include "src/sim/workload.hpp"

#include <memory>

#include "src/platform/rng.hpp"

namespace lockin {
namespace {

// Per-run driver state shared by the thread loops.
struct Driver {
  SimEngine engine;
  std::unique_ptr<SimMachine> machine;
  std::vector<std::unique_ptr<SimLock>> locks;
  std::vector<std::unique_ptr<Xoshiro256>> rngs;
  const WorkloadConfig* config = nullptr;
  SimTime end_time = 0;
  std::uint64_t total_acquires = 0;
  LatencyHistogram latency;
  static constexpr SimTime kNoPendingRequest = ~0ULL;
  std::vector<SimTime> pending_request_at;  // per-thread outstanding Acquire

  bool Finished() const { return engine.now() >= end_time; }

  std::uint64_t CsCycles(int tid) {
    const std::uint64_t cs = config->cs_cycles;
    if (!config->randomize_cs || cs == 0) {
      return cs;
    }
    return cs / 2 + rngs[tid]->NextBelow(cs);
  }

  SimLock& PickLock(int tid) {
    if (locks.size() == 1) {
      return *locks[0];
    }
    return *locks[rngs[tid]->NextBelow(locks.size())];
  }

  // Optional off-CPU wait (I/O) at the end of an iteration, then loop.
  void AfterThink(int tid) {
    const std::uint64_t blocked = config->blocked_cycles;
    if (blocked == 0 || Finished()) {
      ThreadLoop(tid);
      return;
    }
    machine->Block(tid, ActivityState::kSleeping);
    machine->NotifyWhenRunning(tid, [this, tid] { ThreadLoop(tid); });
    machine->Unblock(tid, blocked);
  }

  void ThreadLoop(int tid) {
    if (Finished()) {
      return;  // stop issuing; the engine drains naturally
    }
    SimLock& lock = PickLock(tid);
    const SimTime requested_at = engine.now();
    pending_request_at[tid] = requested_at;
    lock.Acquire(tid, [this, tid, &lock, requested_at] {
      pending_request_at[tid] = kNoPendingRequest;
      latency.Record(engine.now() - requested_at);
      machine->RunFor(tid, CsCycles(tid), ActivityState::kCritical, [this, tid, &lock] {
        total_acquires++;
        lock.Release(tid, [this, tid] {
          const std::uint64_t think = config->non_cs_cycles;
          if (think == 0) {
            AfterThink(tid);
          } else {
            machine->RunFor(tid, think, ActivityState::kWorking,
                            [this, tid] { AfterThink(tid); });
          }
        });
      });
    });
  }
};

// Builds machine, locks and threads for `config` and schedules the thread
// loops. `driver.config` must already point at the (possibly phase-mutated)
// live configuration.
void SetupDriver(Driver& driver, const std::string& lock_name, const WorkloadConfig& config,
                 const WorkloadEnv& env) {
  driver.machine =
      std::make_unique<SimMachine>(&driver.engine, env.topology, env.power, env.sim);

  for (int i = 0; i < config.locks; ++i) {
    SimLockOptions options = env.lock_options;
    options.rng_seed = config.seed * 7919 + static_cast<std::uint64_t>(i);
    driver.locks.push_back(MakeSimLock(lock_name, driver.machine.get(), options));
  }

  driver.pending_request_at.assign(static_cast<std::size_t>(config.threads),
                                   Driver::kNoPendingRequest);
  for (int t = 0; t < config.threads; ++t) {
    driver.rngs.push_back(
        std::make_unique<Xoshiro256>(config.seed * 1315423911ULL + static_cast<std::uint64_t>(t)));
    driver.machine->AddThread();
  }
  for (int t = 0; t < config.threads; ++t) {
    driver.machine->Start(t);
    const int tid = t;
    // Stagger arrivals a little so all threads do not collide on cycle 0.
    driver.engine.Schedule(static_cast<SimTime>(t) * 97, [&driver, tid] {
      driver.ThreadLoop(tid);
    });
  }
}

}  // namespace

WorkloadResult RunLockWorkload(const std::string& lock_name, const WorkloadConfig& config,
                               const WorkloadEnv& env) {
  Driver driver;
  driver.config = &config;
  driver.end_time = config.duration_cycles;
  SetupDriver(driver, lock_name, config, env);

  driver.engine.RunUntil(config.duration_cycles);

  // Censored waits: still-waiting threads' elapsed wait goes into the
  // latency histogram as a lower bound. Without it, a starved MUTEXEE
  // sleeper that never acquires would be invisible to the tail percentiles
  // the paper plots in Figures 9/15.
  for (int t = 0; t < config.threads; ++t) {
    const SimTime requested_at = driver.pending_request_at[t];
    if (requested_at != Driver::kNoPendingRequest && requested_at < config.duration_cycles) {
      driver.latency.Record(config.duration_cycles - requested_at);
    }
  }

  WorkloadResult result;
  result.lock_name = lock_name;
  const SimMachine::EnergyTotals energy = driver.machine->Energy();
  result.seconds = static_cast<double>(config.duration_cycles) / env.sim.cycles_per_second;
  result.total_acquires = driver.total_acquires;
  result.throughput_per_s = static_cast<double>(driver.total_acquires) / result.seconds;
  result.average_watts = energy.average_watts();
  result.package_joules = energy.package_joules;
  result.dram_joules = energy.dram_joules;
  const double joules = energy.total_joules();
  result.tpp = joules > 0 ? static_cast<double>(driver.total_acquires) / joules : 0.0;
  result.acquire_latency_cycles = driver.latency;
  result.engine_events = driver.engine.executed_events();
  result.kernel_time_share = driver.machine->ActiveShare(ActivityState::kKernel);
  result.spin_time_share = driver.machine->ActiveShare(ActivityState::kSpinMbar) +
                           driver.machine->ActiveShare(ActivityState::kSpinPause) +
                           driver.machine->ActiveShare(ActivityState::kSpinLocal) +
                           driver.machine->ActiveShare(ActivityState::kSpinGlobal);
  for (const auto& lock : driver.locks) {
    result.lock_stats += lock->stats();
    if (const SimFutex::Stats* fs = lock->futex_stats()) {
      result.futex_stats += *fs;
    }
  }
  return result;
}

PhasedWorkloadResult RunPhasedLockWorkload(const std::string& lock_name,
                                           const WorkloadConfig& base,
                                           const std::vector<WorkloadPhase>& phases,
                                           const WorkloadEnv& env) {
  PhasedWorkloadResult result;
  result.lock_name = lock_name;
  if (phases.empty()) {
    return result;
  }

  // Live configuration the driver reads; mutated in place at boundaries so
  // the locks (and their adaptation state) persist across phases.
  WorkloadConfig active = base;
  auto apply_phase = [&active](const WorkloadPhase& phase) {
    active.cs_cycles = phase.cs_cycles;
    active.non_cs_cycles = phase.non_cs_cycles;
    active.blocked_cycles = phase.blocked_cycles;
    active.randomize_cs = phase.randomize_cs;
  };
  apply_phase(phases.front());

  std::uint64_t total_cycles = 0;
  for (const WorkloadPhase& phase : phases) {
    total_cycles += phase.duration_cycles;
  }
  active.duration_cycles = total_cycles;

  Driver driver;
  driver.config = &active;
  driver.end_time = total_cycles;
  SetupDriver(driver, lock_name, active, env);

  std::uint64_t closed_acquires = 0;
  double closed_joules = 0.0;
  auto close_phase = [&](std::uint64_t phase_cycles) {
    const SimMachine::EnergyTotals energy = driver.machine->Energy();
    PhaseResult phase;
    phase.acquires = driver.total_acquires - closed_acquires;
    phase.seconds = static_cast<double>(phase_cycles) / env.sim.cycles_per_second;
    phase.joules = energy.total_joules() - closed_joules;
    phase.watts = phase.seconds > 0 ? phase.joules / phase.seconds : 0.0;
    phase.throughput_per_s =
        phase.seconds > 0 ? static_cast<double>(phase.acquires) / phase.seconds : 0.0;
    phase.tpp = phase.joules > 0 ? static_cast<double>(phase.acquires) / phase.joules : 0.0;
    result.phases.push_back(phase);
    closed_acquires = driver.total_acquires;
    closed_joules = energy.total_joules();
  };

  std::uint64_t elapsed = 0;
  for (std::size_t i = 0; i + 1 < phases.size(); ++i) {
    elapsed += phases[i].duration_cycles;
    const std::uint64_t phase_cycles = phases[i].duration_cycles;
    const WorkloadPhase next = phases[i + 1];
    driver.engine.Schedule(elapsed, [&, phase_cycles, next] {
      close_phase(phase_cycles);
      apply_phase(next);
    });
  }

  driver.engine.RunUntil(total_cycles);
  close_phase(phases.back().duration_cycles);

  result.total_acquires = driver.total_acquires;
  result.seconds = static_cast<double>(total_cycles) / env.sim.cycles_per_second;
  result.engine_events = driver.engine.executed_events();
  result.joules = driver.machine->Energy().total_joules();
  result.tpp = result.joules > 0
                   ? static_cast<double>(driver.total_acquires) / result.joules
                   : 0.0;
  return result;
}

}  // namespace lockin
