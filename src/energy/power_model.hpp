// Analytic power model of the paper's Xeon testbed.
//
// Hosts without a readable RAPL interface get their energy from this model
// (ModelMeter), and the simulator integrates it over simulated time. Every
// constant is calibrated against a number reported in the paper:
//
//   * total idle power 55.5 W, split package ~30.5 W / DRAM 25 W (sec 3.1);
//   * activating the first core of a socket costs 13.6 W package power at
//     the max VF setting (6.4 W at min VF), subsequent cores 5.6 W (2.3 W);
//   * max totals: package 132 W, cores 96 W, DRAM 74 W, total 206 W;
//   * busy-wait power at 40 threads ~140 W => spin activity factor ~0.52 of
//     a fully working core (Figure 3);
//   * `pause` spinning draws up to 4% more than plain local spinning,
//     mfence-based pausing up to 7% less than pause (Figure 4);
//   * global spinning draws ~3% less than local spinning (Figure 3);
//   * min-VF spinning is up to 1.7x below max-VF, monitor/mwait ~1.5x below
//     conventional spinning (Figure 5).
//
// The model is deliberately additive (idle + uncore activation + per-core +
// per-extra-hyper-thread + DRAM), which preserves the paper's shapes: the
// knee at one-thread-per-core occupancy, the uncore step when a socket wakes
// up, and the ordering of the waiting techniques.
#ifndef SRC_ENERGY_POWER_MODEL_HPP_
#define SRC_ENERGY_POWER_MODEL_HPP_

#include <vector>

#include "src/energy/activity.hpp"
#include "src/platform/topology.hpp"

namespace lockin {

// Voltage-frequency setting (DVFS). The paper's Xeon scales 1.2-2.8 GHz.
enum class VfSetting {
  kMax,  // 2.8 GHz
  kMin,  // 1.2 GHz
};

// True when the state keeps its hardware context powered (anything but
// inactive / sleeping / deep-sleep). Shared by the power model and the
// simulator's incremental power accounting.
inline bool IsContextActive(ActivityState state) {
  switch (state) {
    case ActivityState::kInactive:
    case ActivityState::kSleeping:
    case ActivityState::kDeepSleep:
      return false;
    default:
      return true;
  }
}

// Calibration constants; defaults reproduce the paper's Xeon (E5-2680 v2).
struct PowerParams {
  double idle_package_w = 30.5;  // both sockets, all cores in idle states
  double idle_dram_w = 25.0;     // DRAM background power

  // Socket "uncore" activation: paid once per socket with >= 1 active core.
  double uncore_active_w_max = 8.0;
  double uncore_active_w_min = 4.1;

  // First hardware context of a core (core wake-up), fully working.
  double core_active_w_max = 5.6;
  double core_active_w_min = 2.3;

  // Second hyper-thread of an already-active core.
  double smt_active_w_max = 1.0;
  double smt_active_w_min = 0.5;

  // Extra DRAM power per context running memory-intensive work.
  double dram_per_working_context_w = 1.225;

  // Kernel housekeeping per sleeping thread (the OS "briefly enables a few
  // cores during the measurements", sec 3.1).
  double sleeping_thread_w = 0.11;

  // Activity factors: fraction of the full working-core dynamic power that
  // each state draws. Calibrated to Figures 3-5 (see header comment).
  double factor_working = 1.0;
  double factor_critical = 0.62;
  double factor_spin_local = 0.52;
  double factor_spin_global = 0.505;  // ~3% below local
  double factor_spin_pause = 0.541;   // ~4% above local
  double factor_spin_mbar = 0.475;    // ~7% below pause, below global too
  double factor_kernel = 0.58;
  double factor_mwait = 0.16;  // => ~1.5x total reduction at 40 threads

  static PowerParams PaperXeon() { return PowerParams{}; }
};

// Per-context VF + activity snapshot -> watts.
class PowerModel {
 public:
  PowerModel(Topology topology, PowerParams params);

  const Topology& topology() const { return topology_; }
  const PowerParams& params() const { return params_; }

  // Power for a machine state: `states[i]` is the activity of hardware
  // context i (in the topology's canonical cpu order), `vf[i]` its DVFS
  // point. Vectors shorter than total_contexts() are padded with kInactive.
  // Note: both hyper-threads of a core share the *higher* of their VF
  // settings (sec 4.2, "both hyper-threads of a physical core share the same
  // VF setting -- the higher of the two").
  double TotalWatts(const std::vector<ActivityState>& states,
                    const std::vector<VfSetting>& vf) const;

  // Convenience: all contexts at the same VF point.
  double TotalWatts(const std::vector<ActivityState>& states,
                    VfSetting vf = VfSetting::kMax) const;

  // Component breakdown used by the Figure 2 reproduction.
  struct Breakdown {
    double package_w = 0;  // includes core power
    double cores_w = 0;
    double dram_w = 0;
    double total() const { return package_w + dram_w; }
  };
  Breakdown ComponentWatts(const std::vector<ActivityState>& states,
                           const std::vector<VfSetting>& vf) const;

  // Dynamic activity factor for a state (0 for inactive/sleeping).
  double ActivityFactor(ActivityState state) const;

  // A context's VF request: kSpinDvfsMin spins at min VF, everything else
  // (active or idle) requests the global point. The core resolves to the
  // higher request among its hyper-threads.
  static VfSetting VfRequest(ActivityState state, VfSetting global) {
    return state == ActivityState::kSpinDvfsMin ? VfSetting::kMin : global;
  }

  // One context's power contribution given its core's resolved VF point
  // and whether it is the core's first active context (which pays the core
  // wake-up power; later siblings pay the SMT power). The single source of
  // truth for the per-context formula -- used by the full recompute below
  // and by SimMachine's incremental per-core accounting.
  struct ContextPower {
    double package_w = 0;
    double cores_w = 0;
    double dram_w = 0;
  };
  ContextPower ContextWatts(ActivityState state, VfSetting core_vf,
                            bool first_active_on_core) const {
    ContextPower power;
    if (!IsContextActive(state)) {
      if (state == ActivityState::kSleeping || state == ActivityState::kDeepSleep) {
        power.package_w = params_.sleeping_thread_w;
      }
      return power;
    }
    const double base =
        first_active_on_core
            ? (core_vf == VfSetting::kMax ? params_.core_active_w_max
                                          : params_.core_active_w_min)
            : (core_vf == VfSetting::kMax ? params_.smt_active_w_max
                                          : params_.smt_active_w_min);
    const double dynamic = base * factor_lut_[static_cast<int>(state)];
    power.package_w = dynamic;
    power.cores_w = dynamic;
    if (state == ActivityState::kWorking) {
      power.dram_w = params_.dram_per_working_context_w;
    }
    return power;
  }

  // Uncore activation watts for a socket with >= 1 active core, at the max
  // or min VF tier depending on whether any active core runs at max.
  double UncoreWatts(bool any_core_at_max_vf) const {
    return any_core_at_max_vf ? params_.uncore_active_w_max : params_.uncore_active_w_min;
  }

 private:
  Topology topology_;
  PowerParams params_;
  // ActivityFactor() per state, built once in the constructor: ContextWatts
  // runs on every context-state change of SimMachine's power cache, so it
  // does no switch dispatch.
  double factor_lut_[kActivityStateCount];
};

}  // namespace lockin

#endif  // SRC_ENERGY_POWER_MODEL_HPP_
