// Simulated multi-core machine: hardware contexts, an oversubscription-aware
// scheduler, CPU-time accounting and energy integration.
//
// Threads execute *CPU work* (RunFor) interleaved with blocking (futex
// sleep). The scheduler places runnable threads onto hardware contexts in
// the paper's pinning order; when runnable threads exceed contexts it
// rotates them with a Linux-like quantum -- the mechanism behind the
// paper's oversubscription collapses (Figure 11 beyond 40 threads, the
// MySQL/SQLite rows of Figures 13-15).
//
// Energy: each context carries an ActivityState; the PowerModel is
// integrated over the piecewise-constant machine state, exactly like RAPL
// integrates real power.
#ifndef SRC_SIM_MACHINE_HPP_
#define SRC_SIM_MACHINE_HPP_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/energy/power_model.hpp"
#include "src/sim/callback.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/params.hpp"

namespace lockin {

class SimMachine {
 public:
  static constexpr std::uint64_t kInfiniteWork = ~0ULL;

  SimMachine(SimEngine* engine, Topology topology, PowerParams power_params,
             SimParams sim_params);

  SimEngine& engine() { return *engine_; }
  const SimParams& params() const { return params_; }
  const Topology& topology() const { return power_model_.topology(); }
  int contexts() const { return topology().total_contexts(); }

  // Global DVFS point used for power integration (Figure 2's min/max runs).
  // Takes effect from the last integration point, like the recompute-based
  // accounting it replaced.
  void SetVf(VfSetting vf) {
    vf_ = vf;
    RebuildPowerCache();
  }

  // --- Threads -------------------------------------------------------------
  // Adds a thread in the not-started state; returns its id.
  int AddThread();
  int thread_count() const { return static_cast<int>(threads_.size()); }

  // Makes the thread runnable for the first time.
  void Start(int tid);

  // Executes `cycles` of CPU time in `activity`, then calls `done`. CPU time
  // only advances while the thread holds a hardware context; preemption
  // pauses the clock. kInfiniteWork spins until CancelWork.
  void RunFor(int tid, std::uint64_t cycles, ActivityState activity,
              SimCallback done);

  // Cancels outstanding RunFor work without invoking its callback (a lock
  // granting to a spinning waiter uses this to end the spin).
  void CancelWork(int tid);

  // Updates the activity (power state) without touching remaining work.
  void SetActivity(int tid, ActivityState activity);

  // Releases the thread's context; the thread stops consuming CPU. Only
  // valid for a running thread with no outstanding work.
  void Block(int tid, ActivityState blocked_state = ActivityState::kSleeping);

  // Makes a blocked thread runnable `delay` cycles from now.
  void Unblock(int tid, std::uint64_t delay);

  bool IsRunning(int tid) const { return threads_[tid].state == ThreadState::kRunning; }
  bool IsReady(int tid) const { return threads_[tid].state == ThreadState::kReady; }
  bool IsBlocked(int tid) const { return threads_[tid].state == ThreadState::kBlocked; }

  // Invokes `fn` the next time `tid` is placed on a context (immediately if
  // already running). Used for FIFO lock handover to a descheduled waiter.
  void NotifyWhenRunning(int tid, SimCallback fn);

  // --- Energy ---------------------------------------------------------------
  struct EnergyTotals {
    double package_joules = 0.0;
    double dram_joules = 0.0;
    double seconds = 0.0;
    double total_joules() const { return package_joules + dram_joules; }
    double average_watts() const { return seconds > 0 ? total_joules() / seconds : 0.0; }
  };

  // Integrates up to now() and returns the running totals.
  EnergyTotals Energy();

  // Share of *active* context time spent in `state` (0 when nothing ran),
  // from the state residency integrated alongside the energy. Section 6.1
  // of the paper quantifies MUTEX's kernel time this way: "SQLite spends
  // more than 40% of the CPU time on the raw spin lock function of the
  // kernel ... MUTEXEE spends just 4%".
  double ActiveShare(ActivityState state);

  // Distance between the incrementally-maintained power breakdown and
  // PowerModel::ComponentWatts at the machine's VF point (test hook: bounds
  // the drift of the per-core delta updates; see the power-cache comment
  // below).
  double PowerCacheDriftForTest() const;

  double NowSeconds() const {
    return static_cast<double>(engine_->now()) / params_.cycles_per_second;
  }

  // Contexts currently active (diagnostics / CPI-style reporting).
  int ActiveContexts() const;

 private:
  enum class ThreadState { kNotStarted, kRunning, kReady, kBlocked };

  struct Thread {
    ThreadState state = ThreadState::kNotStarted;
    int ctx = -1;
    ActivityState activity = ActivityState::kInactive;
    // Outstanding work.
    bool has_work = false;
    std::uint64_t remaining = 0;  // kInfiniteWork for open-ended spinning
    SimCallback done;
    EventId work_event = 0;       // pending completion event (running only)
    SimTime resumed_at = 0;       // when the current work slice started
    std::vector<SimCallback> on_running;
  };

  struct Context {
    int tid = -1;
    EventId quantum_event = 0;
  };

  void AccumulateEnergy();
  void Dispatch();
  void Place(int tid, int ctx);
  void RemoveFromContext(int tid);
  void PauseWork(int tid);
  void ResumeWork(int tid);
  void OnQuantumExpired(int ctx);
  void ArmQuantum(int ctx);
  void SetContextState(int ctx, ActivityState state);

  // --- Incremental power accounting ---------------------------------------
  // The machine integrates power over piecewise-constant state, and states
  // change on every dispatch/block/quantum event, so a full O(contexts)
  // PowerModel recomputation per change dominated simulation wall-clock.
  // Instead the breakdown is maintained incrementally: a context change
  // re-derives only its own core's contribution (<= smt_per_core contexts)
  // and its socket's uncore term, and applies the delta to the running
  // totals. Values match PowerModel::ComponentWatts up to
  // floating-point re-association (~1e-12 W over a full bench run, see
  // PowerCacheDriftForTest); the update sequence is deterministic, so runs
  // remain bit-for-bit repeatable.
  struct CoreTerms {
    double package = 0.0;  // dynamic + sleeping-housekeeping watts
    double cores = 0.0;
    double dram = 0.0;
    bool active = false;    // >= 1 active context
    bool at_max_vf = false; // active && shared VF point resolves to max
  };
  CoreTerms ComputeCoreTerms(int core_key) const;
  double UncoreTerm(int socket) const;
  void RebuildPowerCache();
  void ApplyContextChange(int ctx, ActivityState new_state);

  SimEngine* engine_;
  PowerModel power_model_;
  SimParams params_;
  VfSetting vf_ = VfSetting::kMax;

  std::vector<Thread> threads_;
  std::vector<Context> contexts_;
  std::vector<ActivityState> ctx_states_;
  std::deque<int> ready_;

  SimTime last_energy_time_ = 0;
  EnergyTotals energy_;

  // Power cache (see block comment above).
  PowerModel::Breakdown watts_;
  std::vector<CoreTerms> core_terms_;          // per core_key
  std::vector<int> socket_active_cores_;       // active cores per socket
  std::vector<int> socket_max_vf_cores_;       // active cores at max VF per socket
  std::vector<double> socket_uncore_;          // current uncore term per socket
  std::vector<int> core_key_of_ctx_;
  std::vector<int> socket_of_ctx_;
  std::vector<std::vector<int>> core_ctxs_;    // core_key -> ascending ctx list

  // State residency in integer cycles (exact, order-independent): per
  // activity state, completed context-cycles plus a live per-state context
  // count folded in at each integration point.
  std::vector<std::uint64_t> state_cycles_ =
      std::vector<std::uint64_t>(kActivityStateCount, 0);
  std::vector<std::uint32_t> state_counts_ =
      std::vector<std::uint32_t>(kActivityStateCount, 0);
};

}  // namespace lockin

#endif  // SRC_SIM_MACHINE_HPP_
