// Trace exporters.
//
// WriteChromeTrace emits the Chrome trace-event JSON format, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing: lock waits/holds and
// futex sleeps become duration slices per thread track, adaptive epoch
// switches and wake calls become instants, and the periodic sampler's
// watts samples become a counter track.
#ifndef SRC_OBS_EXPORT_HPP_
#define SRC_OBS_EXPORT_HPP_

#include <ostream>
#include <string>
#include <vector>

#include "src/obs/trace.hpp"

namespace lockin {

struct ChromeTraceOptions {
  // Timestamp conversion: trace-event "ts" is microseconds, so callers pass
  // the calibrated rdtsc rate, CyclesPerNs() * 1000.
  double cycles_per_us = 1000.0;
  std::string process_name = "lockin";
};

// Writes `events` (any order; sorted internally) as strict RFC 8259 JSON.
void WriteChromeTrace(std::ostream& out, std::vector<TraceEvent> events,
                      const ChromeTraceOptions& options);

}  // namespace lockin

#endif  // SRC_OBS_EXPORT_HPP_
