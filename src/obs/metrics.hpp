// LockScope metrics: named counters, gauges and histograms with cheap
// thread-local shards, read through Value(), MetricHistogram::Snapshot()
// and MetricsRegistry::WriteJson().
//
// Increment cost is one relaxed fetch_add on a cache-line-private shard
// selected once per thread, so a server can count per-request events
// (requests, errors, service times) without introducing a shared hot line.
// Reads sum the shards: any read taken while writers are running is a
// valid cut -- never above the true total at read time, monotonically
// non-decreasing across reads, and exact once the writers have quiesced
// (tests/test_obs.cpp pins all three properties).
#ifndef SRC_OBS_METRICS_HPP_
#define SRC_OBS_METRICS_HPP_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>

#include "src/platform/cacheline.hpp"
#include "src/stats/histogram.hpp"

namespace lockin {

namespace obs_internal {
// Stable per-thread shard index. Threads are striped round-robin over
// kMetricShards; a thread keeps its stripe for its lifetime.
inline constexpr std::size_t kMetricShards = 8;
std::size_t ThreadShardIndex();
}  // namespace obs_internal

// Monotonic counter, sharded per thread stripe.
class MetricCounter {
 public:
  void Add(std::uint64_t n = 1) {
    shards_[obs_internal::ThreadShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[obs_internal::kMetricShards];
};

// Last-write-wins instantaneous value (watts, queue depth, ...).
class MetricGauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Sharded latency histogram: each stripe records under its own tiny
// spinlock (recording threads in different stripes never contend); a
// snapshot merges the stripes.
class MetricHistogram {
 public:
  void Record(std::uint64_t value);
  // Merged view of all shards (consistent the same way counters are).
  LatencyHistogram Snapshot() const;

 private:
  struct alignas(kCacheLineSize) Shard {
    mutable std::atomic_flag busy = ATOMIC_FLAG_INIT;
    LatencyHistogram histogram;
  };
  Shard shards_[obs_internal::kMetricShards];
};

// Name -> metric registry, one per owner (each LockServer holds its own).
// Lookup creates on first use and returns a stable reference (metrics live
// in deques, so registration never moves them). Lookup takes a mutex --
// callers cache the reference and pay only the sharded increment per event.
class MetricsRegistry {
 public:
  MetricCounter& Counter(const std::string& name);
  MetricGauge& Gauge(const std::string& name);
  MetricHistogram& Histogram(const std::string& name);

  // Flat metrics JSON: {"counters": {...}, "gauges": {...},
  // "histograms": {name: {count, p50, p99, max}}}.
  void WriteJson(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::deque<std::pair<std::string, MetricCounter>> counters_;
  std::deque<std::pair<std::string, MetricGauge>> gauges_;
  std::deque<std::pair<std::string, MetricHistogram>> histograms_;
};

}  // namespace lockin

#endif  // SRC_OBS_METRICS_HPP_
