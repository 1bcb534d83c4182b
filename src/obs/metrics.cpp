#include "src/obs/metrics.hpp"

#include <cstdio>

#include "src/platform/json.hpp"
#include "src/platform/spin_hint.hpp"

namespace lockin {

namespace obs_internal {

std::size_t ThreadShardIndex() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return mine;
}

}  // namespace obs_internal

void MetricHistogram::Record(std::uint64_t value) {
  Shard& shard = shards_[obs_internal::ThreadShardIndex()];
  while (shard.busy.test_and_set(std::memory_order_acquire)) {
    SpinPause(PauseKind::kPause);
  }
  shard.histogram.Record(value);
  shard.busy.clear(std::memory_order_release);
}

LatencyHistogram MetricHistogram::Snapshot() const {
  LatencyHistogram merged;
  for (const Shard& shard : shards_) {
    while (shard.busy.test_and_set(std::memory_order_acquire)) {
      SpinPause(PauseKind::kPause);
    }
    merged.Merge(shard.histogram);
    shard.busy.clear(std::memory_order_release);
  }
  return merged;
}

MetricCounter& MetricsRegistry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& entry : counters_) {
    if (entry.first == name) {
      return entry.second;
    }
  }
  counters_.emplace_back();
  counters_.back().first = name;
  return counters_.back().second;
}

MetricGauge& MetricsRegistry::Gauge(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& entry : gauges_) {
    if (entry.first == name) {
      return entry.second;
    }
  }
  gauges_.emplace_back();
  gauges_.back().first = name;
  return gauges_.back().second;
}

MetricHistogram& MetricsRegistry::Histogram(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& entry : histograms_) {
    if (entry.first == name) {
      return entry.second;
    }
  }
  histograms_.emplace_back();
  histograms_.back().first = name;
  return histograms_.back().second;
}

namespace {

// Metric names are code-chosen, but a strict parser downstream must never
// see a bare control character; escaping is the shared src/platform/json.hpp
// WriteJsonString.

void WriteNumber(std::ostream& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out << buf;
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> guard(mu_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& entry : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonString(out, entry.first);
    out << ": " << entry.second.Value();
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& entry : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonString(out, entry.first);
    out << ": ";
    WriteNumber(out, entry.second.Value());
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& entry : histograms_) {
    const LatencyHistogram merged = entry.second.Snapshot();
    out << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonString(out, entry.first);
    out << ": {\"count\": " << merged.count() << ", \"p50\": " << merged.P50()
        << ", \"p99\": " << merged.P99() << ", \"max\": " << merged.max() << "}";
  }
  out << (first ? "}" : "\n  }") << "\n}\n";
}

}  // namespace lockin
