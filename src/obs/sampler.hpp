// Periodic energy sampler: a background thread that reads an EnergyMeter
// (RAPL where permitted, the calibrated model elsewhere) every kIntervalMs
// while a traced run goes on, and pushes each window's average watts into a
// trace buffer as a kWattsSample event, so Perfetto shows a power track
// alongside the lock/futex slices.
//
// The sampler relies on this repo's meter contract: Stop() is a
// non-destructive read of "energy since Start()" (both RaplMeter and
// ModelMeter compute deltas against state captured at Start()), so calling
// it repeatedly yields a cumulative series. One Start() by the owner, many
// Stop() reads by the sampler.
#ifndef SRC_OBS_SAMPLER_HPP_
#define SRC_OBS_SAMPLER_HPP_

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/energy/energy_meter.hpp"
#include "src/obs/trace.hpp"

namespace lockin {

class EnergySampler {
 public:
  static constexpr std::uint64_t kIntervalMs = 5;

  // Samples `meter` into `sink` (arg = milliwatts). The meter must already
  // be Start()ed; both must outlive the sampler.
  EnergySampler(EnergyMeter* meter, TraceBuffer* sink);
  ~EnergySampler();

  EnergySampler(const EnergySampler&) = delete;
  EnergySampler& operator=(const EnergySampler&) = delete;

  // Stops the thread and takes one final sample, so even a run shorter
  // than one interval gets a point.
  void Finish();

 private:
  void Sample();

  EnergyMeter* meter_;
  TraceBuffer* sink_;
  std::atomic<bool> stop_{false};
  bool finished_ = false;
  double last_seconds_ = 0;
  double last_joules_ = 0;
  std::thread thread_;
};

}  // namespace lockin

#endif  // SRC_OBS_SAMPLER_HPP_
