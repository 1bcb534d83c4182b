#include "src/obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "src/adaptive/policy.hpp"
#include "src/platform/failpoint.hpp"
#include "src/platform/json.hpp"

namespace lockin {
namespace {

// One emitted trace-event JSON object. Buffered so the writer can emit a
// strictly valid array (comma placement) in one pass at the end.
struct ChromeEvent {
  std::string name;
  std::string cat;
  char ph = 'i';       // X = slice, i = instant, C = counter, M = metadata
  double ts_us = 0;
  double dur_us = 0;   // X only
  std::uint16_t tid = 0;
  std::string args;    // preformatted JSON object body, may be empty
};

std::string SiteArgs(std::uint32_t site) {
  return "\"site\": " + std::to_string(site);
}

const char* PhaseName(std::uint32_t id) {
  switch (id) {
    case 0:
      return "setup";
    case 1:
      return "run";
    default:
      return "phase";
  }
}

}  // namespace

void WriteChromeTrace(std::ostream& out, std::vector<TraceEvent> events,
                      const ChromeTraceOptions& options) {
  std::stable_sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.timestamp < b.timestamp;
  });
  std::uint64_t t0 = ~0ULL;
  for (const TraceEvent& event : events) {
    t0 = std::min(t0, event.timestamp);
  }
  const double cycles_per_us = options.cycles_per_us > 0 ? options.cycles_per_us : 1000.0;
  auto to_us = [&](std::uint64_t timestamp) {
    return static_cast<double>(timestamp - t0) / cycles_per_us;
  };

  std::vector<ChromeEvent> emitted;
  emitted.reserve(events.size());
  std::set<std::uint16_t> tids;

  // Per-thread pairing state. Begin/end kinds become "X" complete slices;
  // an unmatched begin (the run stopped mid-operation, or its end event was
  // dropped under ring back-pressure) is discarded rather than emitted with
  // an invented duration.
  std::uint16_t current_tid = 0;
  bool tid_open = false;
  std::map<std::uint32_t, std::uint64_t> wait_begin;  // site -> acquire_begin ts
  std::map<std::uint32_t, std::uint64_t> hold_begin;  // site -> acquired ts
  std::map<std::uint32_t, std::uint64_t> phase_begin;
  std::uint64_t sleep_begin = 0;
  bool sleeping = false;

  auto reset_thread_state = [&](std::uint16_t tid) {
    current_tid = tid;
    tid_open = true;
    wait_begin.clear();
    hold_begin.clear();
    phase_begin.clear();
    sleeping = false;
  };

  for (const TraceEvent& event : events) {
    if (!tid_open || event.tid != current_tid) {
      reset_thread_state(event.tid);
    }
    tids.insert(event.tid);
    const auto kind = static_cast<TraceEventKind>(event.kind);
    switch (kind) {
      case TraceEventKind::kAcquireBegin:
        wait_begin[event.arg] = event.timestamp;
        break;
      case TraceEventKind::kAcquired: {
        auto it = wait_begin.find(event.arg);
        if (it != wait_begin.end()) {
          emitted.push_back({"lock_wait", "lock", 'X', to_us(it->second),
                             to_us(event.timestamp) - to_us(it->second), event.tid,
                             SiteArgs(event.arg)});
          wait_begin.erase(it);
        }
        hold_begin[event.arg] = event.timestamp;
        break;
      }
      case TraceEventKind::kReleased: {
        auto it = hold_begin.find(event.arg);
        if (it != hold_begin.end()) {
          emitted.push_back({"lock_hold", "lock", 'X', to_us(it->second),
                             to_us(event.timestamp) - to_us(it->second), event.tid,
                             SiteArgs(event.arg)});
          hold_begin.erase(it);
        }
        break;
      }
      case TraceEventKind::kContended:
        emitted.push_back({"contended", "lock", 'i', to_us(event.timestamp), 0, event.tid,
                           SiteArgs(event.arg)});
        break;
      case TraceEventKind::kFutexSleepBegin:
        sleep_begin = event.timestamp;
        sleeping = true;
        break;
      case TraceEventKind::kFutexSleepEnd:
        if (sleeping) {
          emitted.push_back({"futex_sleep", "futex", 'X', to_us(sleep_begin),
                             to_us(event.timestamp) - to_us(sleep_begin), event.tid,
                             "\"result\": " + std::to_string(event.arg)});
          sleeping = false;
        }
        break;
      case TraceEventKind::kFutexWake:
        emitted.push_back({"futex_wake", "futex", 'i', to_us(event.timestamp), 0, event.tid,
                           "\"woken\": " + std::to_string(event.arg)});
        break;
      case TraceEventKind::kEpochSwitch: {
        std::string args = "\"backend\": \"";
        JsonEscape(&args, AdaptiveBackendName(static_cast<AdaptiveBackend>(event.arg)));
        args += "\"";
        emitted.push_back(
            {"epoch_switch", "adaptive", 'i', to_us(event.timestamp), 0, event.tid, args});
        break;
      }
      case TraceEventKind::kPhaseBegin:
        phase_begin[event.arg] = event.timestamp;
        break;
      case TraceEventKind::kPhaseEnd: {
        auto it = phase_begin.find(event.arg);
        if (it != phase_begin.end()) {
          emitted.push_back({std::string("phase:") + PhaseName(event.arg), "scenario", 'X',
                             to_us(it->second), to_us(event.timestamp) - to_us(it->second),
                             event.tid, ""});
          phase_begin.erase(it);
        }
        break;
      }
      case TraceEventKind::kWattsSample:
        emitted.push_back({"watts", "energy", 'C', to_us(event.timestamp), 0, event.tid,
                           "\"watts\": " + std::to_string(event.arg / 1000.0)});
        break;
      case TraceEventKind::kLockdepViolation:
        emitted.push_back({"lockdep_violation", "lockdep", 'i', to_us(event.timestamp), 0,
                           event.tid, SiteArgs(event.arg)});
        break;
      case TraceEventKind::kWatchdogStall:
        emitted.push_back({"watchdog_stall", "failsafe", 'i', to_us(event.timestamp), 0,
                           event.tid, "\"worker\": " + std::to_string(event.arg)});
        break;
      case TraceEventKind::kFailpointFire: {
        std::string args = "\"site\": \"";
        JsonEscape(&args, FailpointName(static_cast<FailpointId>(event.arg)));
        args += "\"";
        emitted.push_back(
            {"failpoint_fire", "failsafe", 'i', to_us(event.timestamp), 0, event.tid, args});
        break;
      }
      case TraceEventKind::kNone:
        break;
    }
  }

  out << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  bool first = true;
  auto emit_comma = [&] {
    out << (first ? "\n    " : ",\n    ");
    first = false;
  };
  // Metadata: name the process and each thread track.
  {
    std::string name;
    JsonEscape(&name, options.process_name);
    emit_comma();
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
        << "\"args\": {\"name\": \"" << name << "\"}}";
  }
  for (const std::uint16_t tid : tids) {
    emit_comma();
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
        << ", \"args\": {\"name\": \"thread-" << tid << "\"}}";
  }
  char buf[64];
  for (const ChromeEvent& event : emitted) {
    emit_comma();
    out << "{\"name\": \"" << event.name << "\", \"cat\": \"" << event.cat << "\", \"ph\": \""
        << event.ph << "\", \"pid\": 1, \"tid\": " << event.tid;
    std::snprintf(buf, sizeof buf, "%.3f", event.ts_us);
    out << ", \"ts\": " << buf;
    if (event.ph == 'X') {
      std::snprintf(buf, sizeof buf, "%.3f", event.dur_us);
      out << ", \"dur\": " << buf;
    }
    if (event.ph == 'i') {
      out << ", \"s\": \"t\"";
    }
    if (!event.args.empty()) {
      out << ", \"args\": {" << event.args << "}";
    }
    out << "}";
  }
  out << (first ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace lockin
