// Model-based energy meter.
//
// Substitutes for RAPL on hosts without it (see DESIGN.md section 2).
// Threads report their activity transitions to an ActivityRegistry; the
// meter integrates the calibrated PowerModel over the piecewise-constant
// machine state. Integration is exact (event-driven, not sampled): energy
// is accumulated at every state transition, so short events like futex
// sleep/wake flurries are captured.
#ifndef SRC_ENERGY_MODEL_METER_HPP_
#define SRC_ENERGY_MODEL_METER_HPP_

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "src/energy/energy_meter.hpp"
#include "src/energy/power_model.hpp"

namespace lockin {

// Tracks which activity state each hardware context is in and integrates
// package/DRAM energy over time. Thread-safe; transitions take a mutex
// (acceptable for benchmarking since transitions are orders of magnitude
// rarer than lock operations).
class ActivityRegistry {
 public:
  explicit ActivityRegistry(PowerModel model);

  // Declares that context `ctx` (index into the pinning order) entered
  // `state`. Integrates energy for the elapsed interval first.
  void SetState(int ctx, ActivityState state);

  // Integrated energy since construction or the last ResetEnergy().
  struct Totals {
    double package_joules = 0.0;
    double dram_joules = 0.0;
    double seconds = 0.0;
  };
  Totals Snapshot();

  void ResetEnergy();

  const PowerModel& model() const { return model_; }

 private:
  void AccumulateLocked(std::chrono::steady_clock::time_point now);

  PowerModel model_;
  std::mutex mu_;
  std::vector<ActivityState> states_;
  std::chrono::steady_clock::time_point last_transition_;
  Totals totals_;
};

// EnergyMeter facade over an ActivityRegistry.
class ModelMeter : public EnergyMeter {
 public:
  explicit ModelMeter(std::shared_ptr<ActivityRegistry> registry);

  void Start() override;
  EnergySample Stop() override;
  std::string Name() const override { return "model"; }

 private:
  std::shared_ptr<ActivityRegistry> registry_;
  ActivityRegistry::Totals start_;
};

// Picks the best available meter: RAPL when readable, the model otherwise.
// `registry` may be null when the caller knows RAPL is available.
std::unique_ptr<EnergyMeter> MakeDefaultMeter(std::shared_ptr<ActivityRegistry> registry);

}  // namespace lockin

#endif  // SRC_ENERGY_MODEL_METER_HPP_
