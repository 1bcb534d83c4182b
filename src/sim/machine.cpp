#include "src/sim/machine.hpp"

#include <cassert>
#include <utility>

namespace lockin {

SimMachine::SimMachine(SimEngine* engine, Topology topology, PowerParams power_params,
                       SimParams sim_params)
    : engine_(engine),
      power_model_(std::move(topology), power_params),
      params_(sim_params),
      contexts_(power_model_.topology().total_contexts()),
      ctx_states_(power_model_.topology().total_contexts(), ActivityState::kInactive) {
  const Topology& topo = power_model_.topology();
  core_ctxs_.resize(topo.total_cores());
  core_key_of_ctx_.reserve(topo.cpus().size());
  socket_of_ctx_.reserve(topo.cpus().size());
  for (std::size_t ctx = 0; ctx < topo.cpus().size(); ++ctx) {
    const CpuInfo& cpu = topo.cpus()[ctx];
    const int core_key = cpu.socket * topo.cores_per_socket() + cpu.core;
    core_key_of_ctx_.push_back(core_key);
    socket_of_ctx_.push_back(cpu.socket);
    core_ctxs_[core_key].push_back(static_cast<int>(ctx));  // ascending ctx order
  }
  RebuildPowerCache();
}

SimMachine::CoreTerms SimMachine::ComputeCoreTerms(int core_key) const {
  CoreTerms terms;
  // Hyper-threads of a core share the *higher* VF point: the core runs at
  // min VF only when every one of its contexts requests min (an inactive
  // sibling requests the global point).
  bool any_max_request = false;
  for (const int ctx : core_ctxs_[core_key]) {
    if (PowerModel::VfRequest(ctx_states_[ctx], vf_) == VfSetting::kMax) {
      any_max_request = true;
    }
  }
  const VfSetting core_vf = any_max_request ? VfSetting::kMax : VfSetting::kMin;

  // The first active context (lowest ctx index, matching the power model's
  // iteration order) pays the core wake-up power, later ones the SMT power.
  // ContextWatts is the power model's own per-context formula.
  bool first = true;
  for (const int ctx : core_ctxs_[core_key]) {
    const ActivityState state = ctx_states_[ctx];
    const bool active = IsContextActive(state);
    const PowerModel::ContextPower power =
        power_model_.ContextWatts(state, core_vf, active && first);
    if (active) {
      first = false;
      terms.active = true;
    }
    terms.package += power.package_w;
    terms.cores += power.cores_w;
    terms.dram += power.dram_w;
  }
  terms.at_max_vf = terms.active && core_vf == VfSetting::kMax;
  return terms;
}

double SimMachine::UncoreTerm(int socket) const {
  if (socket_active_cores_[socket] == 0) {
    return 0.0;
  }
  return power_model_.UncoreWatts(socket_max_vf_cores_[socket] > 0);
}

void SimMachine::RebuildPowerCache() {
  const Topology& topo = power_model_.topology();
  const PowerParams& p = power_model_.params();
  core_terms_.assign(core_ctxs_.size(), CoreTerms{});
  socket_active_cores_.assign(topo.sockets(), 0);
  socket_max_vf_cores_.assign(topo.sockets(), 0);
  socket_uncore_.assign(topo.sockets(), 0.0);
  state_counts_.assign(kActivityStateCount, 0);
  for (const ActivityState state : ctx_states_) {
    state_counts_[static_cast<std::size_t>(state)]++;
  }

  watts_ = PowerModel::Breakdown{};
  watts_.package_w = p.idle_package_w;
  watts_.dram_w = p.idle_dram_w;
  for (std::size_t core = 0; core < core_ctxs_.size(); ++core) {
    const CoreTerms terms = ComputeCoreTerms(static_cast<int>(core));
    core_terms_[core] = terms;
    if (terms.active) {
      const int socket = socket_of_ctx_[core_ctxs_[core].front()];
      socket_active_cores_[socket]++;
      if (terms.at_max_vf) {
        socket_max_vf_cores_[socket]++;
      }
    }
    watts_.package_w += terms.package;
    watts_.cores_w += terms.cores;
    watts_.dram_w += terms.dram;
  }
  for (int socket = 0; socket < topo.sockets(); ++socket) {
    socket_uncore_[socket] = UncoreTerm(socket);
    watts_.package_w += socket_uncore_[socket];
  }
}

void SimMachine::ApplyContextChange(int ctx, ActivityState new_state) {
  state_counts_[static_cast<std::size_t>(ctx_states_[ctx])]--;
  state_counts_[static_cast<std::size_t>(new_state)]++;
  ctx_states_[ctx] = new_state;

  const int core_key = core_key_of_ctx_[ctx];
  const int socket = socket_of_ctx_[ctx];
  const CoreTerms before = core_terms_[core_key];
  const CoreTerms after = ComputeCoreTerms(core_key);
  core_terms_[core_key] = after;
  watts_.package_w += after.package - before.package;
  watts_.cores_w += after.cores - before.cores;
  watts_.dram_w += after.dram - before.dram;

  if (before.active != after.active || before.at_max_vf != after.at_max_vf) {
    socket_active_cores_[socket] += (after.active ? 1 : 0) - (before.active ? 1 : 0);
    socket_max_vf_cores_[socket] += (after.at_max_vf ? 1 : 0) - (before.at_max_vf ? 1 : 0);
    const double uncore = UncoreTerm(socket);
    watts_.package_w += uncore - socket_uncore_[socket];
    socket_uncore_[socket] = uncore;
  }
}

double SimMachine::PowerCacheDriftForTest() const {
  const PowerModel::Breakdown full =
      power_model_.ComponentWatts(ctx_states_, std::vector<VfSetting>(ctx_states_.size(), vf_));
  const double dp = watts_.package_w - full.package_w;
  const double dc = watts_.cores_w - full.cores_w;
  const double dd = watts_.dram_w - full.dram_w;
  double drift = dp < 0 ? -dp : dp;
  drift = dc < 0 ? (drift < -dc ? -dc : drift) : (drift < dc ? dc : drift);
  drift = dd < 0 ? (drift < -dd ? -dd : drift) : (drift < dd ? dd : drift);
  return drift;
}

void SimMachine::AccumulateEnergy() {
  const SimTime now = engine_->now();
  if (now > last_energy_time_) {
    const std::uint64_t dcycles = now - last_energy_time_;
    const double dt = static_cast<double>(dcycles) / params_.cycles_per_second;
    energy_.package_joules += watts_.package_w * dt;
    energy_.dram_joules += watts_.dram_w * dt;
    energy_.seconds += dt;
    for (int s = 0; s < kActivityStateCount; ++s) {
      state_cycles_[static_cast<std::size_t>(s)] += dcycles * state_counts_[static_cast<std::size_t>(s)];
    }
  }
  last_energy_time_ = now;
}

void SimMachine::SetContextState(int ctx, ActivityState state) {
  if (ctx_states_[ctx] != state) {
    AccumulateEnergy();
    ApplyContextChange(ctx, state);
  }
}

int SimMachine::AddThread() {
  threads_.emplace_back();
  return static_cast<int>(threads_.size()) - 1;
}

void SimMachine::Start(int tid) {
  Thread& t = threads_[tid];
  assert(t.state == ThreadState::kNotStarted);
  t.state = ThreadState::kReady;
  ready_.push_back(tid);
  Dispatch();
}

void SimMachine::Dispatch() {
  while (!ready_.empty()) {
    int free_ctx = -1;
    for (int c = 0; c < static_cast<int>(contexts_.size()); ++c) {
      if (contexts_[c].tid < 0) {
        free_ctx = c;
        break;
      }
    }
    if (free_ctx < 0) {
      // Oversubscribed with waiters: make sure every occupied context has a
      // preemption timer so the ready threads eventually rotate in.
      for (Context& c : contexts_) {
        if (c.tid >= 0 && c.quantum_event == 0) {
          const int ctx_index = static_cast<int>(&c - contexts_.data());
          c.quantum_event = engine_->Schedule(params_.scheduler_quantum_cycles,
                                              [this, ctx_index] {
                                                contexts_[ctx_index].quantum_event = 0;
                                                OnQuantumExpired(ctx_index);
                                              });
        }
      }
      return;
    }
    const int tid = ready_.front();
    ready_.pop_front();
    Place(tid, free_ctx);
  }
}

void SimMachine::Place(int tid, int ctx) {
  Thread& t = threads_[tid];
  t.state = ThreadState::kRunning;
  t.ctx = ctx;
  contexts_[ctx].tid = tid;
  SetContextState(ctx, t.activity);
  ArmQuantum(ctx);

  // Fire scheduling waiters (FIFO lock handovers, etc.) before resuming
  // work: a pending handover may cancel the spin work.
  if (!t.on_running.empty()) {
    std::vector<SimCallback> callbacks;
    callbacks.swap(t.on_running);
    for (auto& fn : callbacks) {
      fn();
    }
  }
  if (threads_[tid].state == ThreadState::kRunning) {
    ResumeWork(tid);
  }
}

void SimMachine::ArmQuantum(int ctx) {
  Context& c = contexts_[ctx];
  if (c.quantum_event != 0) {
    engine_->Cancel(c.quantum_event);
    c.quantum_event = 0;
  }
  // A preemption timer is only needed while someone waits for a context;
  // arming unconditionally would keep the event queue alive forever.
  if (ready_.empty()) {
    return;
  }
  c.quantum_event = engine_->Schedule(params_.scheduler_quantum_cycles, [this, ctx] {
    contexts_[ctx].quantum_event = 0;
    OnQuantumExpired(ctx);
  });
}

void SimMachine::OnQuantumExpired(int ctx) {
  const int tid = contexts_[ctx].tid;
  if (tid < 0 || ready_.empty()) {
    return;  // nothing to rotate; re-armed on demand by Dispatch
  }
  // Rotate: running thread to the ready tail, next ready thread in.
  Thread& t = threads_[tid];
  PauseWork(tid);
  RemoveFromContext(tid);
  t.state = ThreadState::kReady;
  ready_.push_back(tid);
  const int next = ready_.front();
  ready_.pop_front();
  Place(next, ctx);
}

void SimMachine::RemoveFromContext(int tid) {
  Thread& t = threads_[tid];
  if (t.ctx >= 0) {
    contexts_[t.ctx].tid = -1;
    if (contexts_[t.ctx].quantum_event != 0) {
      engine_->Cancel(contexts_[t.ctx].quantum_event);
      contexts_[t.ctx].quantum_event = 0;
    }
    SetContextState(t.ctx, ActivityState::kInactive);
    t.ctx = -1;
  }
}

void SimMachine::PauseWork(int tid) {
  Thread& t = threads_[tid];
  if (!t.has_work || t.work_event == 0) {
    return;
  }
  engine_->Cancel(t.work_event);
  t.work_event = 0;
  if (t.remaining != kInfiniteWork) {
    const SimTime elapsed = engine_->now() - t.resumed_at;
    t.remaining = elapsed >= t.remaining ? 0 : t.remaining - elapsed;
  }
}

void SimMachine::ResumeWork(int tid) {
  Thread& t = threads_[tid];
  if (!t.has_work || t.work_event != 0) {
    return;
  }
  t.resumed_at = engine_->now();
  if (t.remaining == kInfiniteWork) {
    return;  // open-ended spin: no completion event
  }
  // Context-switch cost is charged to the first slice after each placement;
  // folding it into the work keeps the accounting simple and conservative.
  t.work_event = engine_->Schedule(t.remaining, [this, tid] {
    Thread& thread = threads_[tid];
    thread.work_event = 0;
    thread.has_work = false;
    thread.remaining = 0;
    SimCallback done = std::move(thread.done);
    if (done) {
      done();
    }
  });
}

void SimMachine::RunFor(int tid, std::uint64_t cycles, ActivityState activity,
                        SimCallback done) {
  Thread& t = threads_[tid];
  assert(!t.has_work && "RunFor while work pending");
  t.has_work = true;
  t.remaining = cycles;
  t.done = std::move(done);
  t.activity = activity;
  if (t.state == ThreadState::kRunning) {
    SetContextState(t.ctx, activity);
    ResumeWork(tid);
  }
}

void SimMachine::CancelWork(int tid) {
  Thread& t = threads_[tid];
  if (!t.has_work) {
    return;
  }
  if (t.work_event != 0) {
    engine_->Cancel(t.work_event);
    t.work_event = 0;
  }
  t.has_work = false;
  t.remaining = 0;
  t.done.reset();
}

void SimMachine::SetActivity(int tid, ActivityState activity) {
  Thread& t = threads_[tid];
  t.activity = activity;
  if (t.state == ThreadState::kRunning) {
    SetContextState(t.ctx, activity);
  }
}

void SimMachine::Block(int tid, ActivityState blocked_state) {
  Thread& t = threads_[tid];
  assert(t.state == ThreadState::kRunning && "Block requires a running thread");
  assert(!t.has_work && "Block with work pending");
  RemoveFromContext(tid);
  t.state = ThreadState::kBlocked;
  t.activity = blocked_state;
  Dispatch();
}

void SimMachine::Unblock(int tid, std::uint64_t delay) {
  engine_->Schedule(delay, [this, tid] {
    Thread& t = threads_[tid];
    if (t.state != ThreadState::kBlocked) {
      return;
    }
    t.state = ThreadState::kReady;
    ready_.push_back(tid);
    Dispatch();
  });
}

void SimMachine::NotifyWhenRunning(int tid, SimCallback fn) {
  Thread& t = threads_[tid];
  if (t.state == ThreadState::kRunning) {
    fn();
    return;
  }
  t.on_running.push_back(std::move(fn));
}

SimMachine::EnergyTotals SimMachine::Energy() {
  AccumulateEnergy();
  return energy_;
}

double SimMachine::ActiveShare(ActivityState state) {
  AccumulateEnergy();
  std::uint64_t active = 0;
  for (int i = 0; i < kActivityStateCount; ++i) {
    if (IsContextActive(static_cast<ActivityState>(i))) {
      active += state_cycles_[static_cast<std::size_t>(i)];
    }
  }
  if (active == 0) {
    return 0.0;
  }
  return static_cast<double>(state_cycles_[static_cast<std::size_t>(state)]) /
         static_cast<double>(active);
}

int SimMachine::ActiveContexts() const {
  int active = 0;
  for (const Context& c : contexts_) {
    if (c.tid >= 0) {
      ++active;
    }
  }
  return active;
}

}  // namespace lockin
