#include "src/energy/model_meter.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/energy/rapl_meter.hpp"

namespace lockin {

ModelMeter::ModelMeter(const PowerModel& model, int busy_contexts) {
  const int contexts = model.topology().total_contexts();
  std::vector<ActivityState> states(static_cast<std::size_t>(contexts), ActivityState::kInactive);
  std::fill_n(states.begin(), std::clamp(busy_contexts, 0, contexts), ActivityState::kCritical);
  watts_ = model.ComponentWatts(states, {});
}

void ModelMeter::Start() { start_ = std::chrono::steady_clock::now(); }

EnergySample ModelMeter::Stop() {
  const double seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  EnergySample sample;
  sample.package_joules = watts_.package_w * seconds;
  sample.dram_joules = watts_.dram_w * seconds;
  sample.seconds = seconds;
  return sample;
}

std::unique_ptr<EnergyMeter> MakeDefaultMeter(const PowerModel& model, int busy_contexts) {
  if (RaplMeter::Available()) {
    return std::make_unique<RaplMeter>();
  }
  // Graceful degradation, explained once per process: powercap nodes that
  // exist but are root-only are the usual unprivileged-host case, and a
  // silent model fallback there would look like "RAPL numbers" to a reader
  // of the output.
  static const bool logged = [] {
    if (RaplMeter::PowercapPresent()) {
      std::fprintf(stderr,
                   "lockin: powercap sysfs is present but no RAPL domain is readable "
                   "(usually needs root); falling back to the model energy meter\n");
    }
    return true;
  }();
  (void)logged;
  return std::make_unique<ModelMeter>(model, busy_contexts);
}

}  // namespace lockin
