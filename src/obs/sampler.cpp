#include "src/obs/sampler.hpp"

#include <chrono>

namespace lockin {

EnergySampler::EnergySampler(EnergyMeter* meter, TraceBuffer* sink)
    : meter_(meter), sink_(sink) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kIntervalMs));
      Sample();
    }
  });
}

void EnergySampler::Sample() {
  const EnergySample cumulative = meter_->Stop();
  const double joules = cumulative.total_joules();
  const double dt = cumulative.seconds - last_seconds_;
  const double watts = dt > 0 ? (joules - last_joules_) / dt : 0;
  last_seconds_ = cumulative.seconds;
  last_joules_ = joules;
  sink_->Push(ReadCycles(), TraceEventKind::kWattsSample,
              static_cast<std::uint32_t>(watts * 1000.0));
}

void EnergySampler::Finish() {
  if (!finished_) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    Sample();  // final point covers the tail of the run
    finished_ = true;
  }
}

EnergySampler::~EnergySampler() {
  if (!finished_) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
}

}  // namespace lockin
