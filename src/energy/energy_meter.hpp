// Energy measurement interface.
//
// The paper uses Intel RAPL counters to measure package and DRAM energy
// (section 2). On hosts with RAPL we read the same counters via powercap
// sysfs (RaplMeter); elsewhere a calibrated model integrates power over
// observed thread activity (ModelMeter). Benchmarks program against this
// interface and never care which backend is live.
#ifndef SRC_ENERGY_ENERGY_METER_HPP_
#define SRC_ENERGY_ENERGY_METER_HPP_

#include <cstdint>
#include <memory>
#include <string>

namespace lockin {

// Energy consumed between Start() and Stop().
struct EnergySample {
  double package_joules = 0.0;  // processor package(s), cores included
  double dram_joules = 0.0;
  double seconds = 0.0;

  double total_joules() const { return package_joules + dram_joules; }
  double average_watts() const { return seconds > 0 ? total_joules() / seconds : 0.0; }

  // Throughput-per-power (TPP, operations/Joule): the paper's primary
  // energy-efficiency metric. `operations` is the work completed during the
  // sample window.
  double Tpp(double operations) const {
    return total_joules() > 0 ? operations / total_joules() : 0.0;
  }
};

class EnergyMeter {
 public:
  virtual ~EnergyMeter() = default;

  virtual void Start() = 0;
  virtual EnergySample Stop() = 0;

  // Human-readable backend name ("rapl", "model").
  virtual std::string Name() const = 0;
};

}  // namespace lockin

#endif  // SRC_ENERGY_ENERGY_METER_HPP_
