#include "src/energy/power_model.hpp"

#include <algorithm>

namespace lockin {

PowerModel::PowerModel(Topology topology, PowerParams params)
    : topology_(std::move(topology)), params_(params) {
  for (int s = 0; s < kActivityStateCount; ++s) {
    factor_lut_[s] = ActivityFactor(static_cast<ActivityState>(s));
  }
}

double PowerModel::ActivityFactor(ActivityState state) const {
  switch (state) {
    case ActivityState::kInactive:
    case ActivityState::kSleeping:
    case ActivityState::kDeepSleep:
      return 0.0;
    case ActivityState::kWorking:
      return params_.factor_working;
    case ActivityState::kCritical:
      return params_.factor_critical;
    case ActivityState::kSpinGlobal:
      return params_.factor_spin_global;
    case ActivityState::kSpinLocal:
      return params_.factor_spin_local;
    case ActivityState::kSpinPause:
      return params_.factor_spin_pause;
    case ActivityState::kSpinMbar:
      return params_.factor_spin_mbar;
    case ActivityState::kSpinDvfsMin:
      // The DVFS state's reduction comes from the min-VF core power, not the
      // activity factor; it spins like local spinning otherwise.
      return params_.factor_spin_local;
    case ActivityState::kMwait:
      return params_.factor_mwait;
    case ActivityState::kKernel:
      return params_.factor_kernel;
  }
  return 0.0;
}

PowerModel::Breakdown PowerModel::ComponentWatts(const std::vector<ActivityState>& states,
                                                 const std::vector<VfSetting>& vf) const {
  const std::vector<CpuInfo>& cpus = topology_.cpus();
  const int n = std::min(topology_.total_contexts(), static_cast<int>(cpus.size()));
  const int ns = static_cast<int>(states.size());
  const int nvf = static_cast<int>(vf.size());
  auto core_key_of = [&](int ctx) {
    return cpus[ctx].socket * topology_.cores_per_socket() + cpus[ctx].core;
  };

  // Hyper-threads of a core share the *higher* VF point (section 4.2), and
  // an inactive sibling counts as high: lowering one context's VF "will
  // have no effect unless the second hyper-thread has the same or lower VF
  // setting". A core runs at min VF only when every one of its contexts
  // requests min. Keyed by socket * cores_per_socket + core.
  const int cores_total = topology_.total_cores();
  std::vector<int> active_contexts_on_core(cores_total, 0);
  std::vector<VfSetting> core_vf(cores_total, VfSetting::kMin);
  std::vector<char> socket_active(topology_.sockets(), 0);

  for (int ctx = 0; ctx < n; ++ctx) {
    const ActivityState state = ctx < ns ? states[ctx] : ActivityState::kInactive;
    const int core_key = core_key_of(ctx);
    if (VfRequest(state, ctx < nvf ? vf[ctx] : VfSetting::kMax) == VfSetting::kMax) {
      core_vf[core_key] = VfSetting::kMax;  // higher request (or idle) wins
    }
    if (!IsContextActive(state)) {
      continue;
    }
    active_contexts_on_core[core_key]++;
    socket_active[cpus[ctx].socket] = 1;
  }

  Breakdown result;
  result.package_w = params_.idle_package_w;
  result.dram_w = params_.idle_dram_w;

  for (int socket = 0; socket < topology_.sockets(); ++socket) {
    if (socket_active[socket] != 0) {
      // Uncore activation at the socket's max VF among active cores.
      bool any_max = false;
      for (int core = 0; core < topology_.cores_per_socket(); ++core) {
        const int key = socket * topology_.cores_per_socket() + core;
        if (active_contexts_on_core[key] > 0 && core_vf[key] == VfSetting::kMax) {
          any_max = true;
        }
      }
      result.package_w += UncoreWatts(any_max);
    }
  }

  // Per-context dynamic power (ContextWatts is the single source of the
  // formula). The first active context of a core pays the core wake-up
  // power; additional hyper-threads pay the (smaller) SMT power.
  std::vector<char> seen_on_core(cores_total, 0);
  for (int ctx = 0; ctx < n; ++ctx) {
    const ActivityState state = ctx < ns ? states[ctx] : ActivityState::kInactive;
    if (!IsContextActive(state)) {
      result.package_w += ContextWatts(state, VfSetting::kMax, false).package_w;
      continue;
    }
    const int core_key = core_key_of(ctx);
    const bool first_on_core = seen_on_core[core_key] == 0;
    seen_on_core[core_key] = 1;

    const ContextPower power = ContextWatts(state, core_vf[core_key], first_on_core);
    result.cores_w += power.cores_w;
    result.package_w += power.package_w;
    result.dram_w += power.dram_w;
  }

  return result;
}

double PowerModel::TotalWatts(const std::vector<ActivityState>& states,
                              const std::vector<VfSetting>& vf) const {
  return ComponentWatts(states, vf).total();
}

double PowerModel::TotalWatts(const std::vector<ActivityState>& states, VfSetting vf) const {
  const std::vector<VfSetting> uniform(states.size(), vf);
  return TotalWatts(states, uniform);
}

}  // namespace lockin
