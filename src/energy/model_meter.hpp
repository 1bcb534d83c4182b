// Model-based energy meter.
//
// Substitutes for RAPL on hosts without it. The meter is one formula: the
// calibrated PowerModel's watts for `busy_contexts` contexts running a
// critical section (kCritical) and the rest idle, charged for the elapsed
// wall time. The scenario driver knows which contexts its workers occupy,
// not how they wait, so that is the one input it gives the model.
#ifndef SRC_ENERGY_MODEL_METER_HPP_
#define SRC_ENERGY_MODEL_METER_HPP_

#include <chrono>
#include <memory>

#include "src/energy/energy_meter.hpp"
#include "src/energy/power_model.hpp"

namespace lockin {

class ModelMeter : public EnergyMeter {
 public:
  // Contexts 0..busy_contexts-1 (capped at the topology's contexts) run as
  // kCritical; the power is computed once, here.
  ModelMeter(const PowerModel& model, int busy_contexts);

  void Start() override;
  // Energy since Start(). A repeatable read: the energy sampler calls it
  // while the run goes on.
  EnergySample Stop() override;
  std::string Name() const override { return "model"; }

 private:
  PowerModel::Breakdown watts_;
  std::chrono::steady_clock::time_point start_;
};

// Picks the best available meter: RAPL when readable, otherwise a
// ModelMeter over `model` with `busy_contexts` busy.
std::unique_ptr<EnergyMeter> MakeDefaultMeter(const PowerModel& model, int busy_contexts);

}  // namespace lockin

#endif  // SRC_ENERGY_MODEL_METER_HPP_
