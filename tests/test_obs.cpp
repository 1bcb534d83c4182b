// LockScope observability tests: trace-ring overflow semantics, SPSC
// liveness, exporter JSON strictness (round-tripped through a strict RFC
// 8259 parser written below -- no external JSON dependency), metrics
// snapshot consistency under concurrent increments, the energy sampler,
// and TPP surfacing in scenario results via the model meter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/energy/model_meter.hpp"
#include "src/energy/power_model.hpp"
#include "src/energy/rapl_meter.hpp"
#include "src/locks/lock_api.hpp"
#include "src/locks/lock_registry.hpp"
#include "src/obs/export.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/platform/topology.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {
namespace {

// --- A strict RFC 8259 recursive-descent validator ---------------------------
// Deliberately unforgiving: no trailing commas, no NaN/Infinity, no bare
// values the grammar forbids. If WriteChromeTrace or MetricsRegistry::
// WriteJson emit anything loose, this rejects it.
class StrictJson {
 public:
  explicit StrictJson(std::string text) : text_(std::move(text)) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters are forbidden
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() || !std::isxdigit(static_cast<unsigned char>(
                                                text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' && e != 'n' &&
                   e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    if (!Digits()) {
      return false;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!Digits()) {
        return false;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (!Digits()) {
        return false;
      }
    }
    return pos_ > start;
  }

  bool Digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return false;
      }
    }
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string text_;
  std::size_t pos_ = 0;
};

// --- Trace ring --------------------------------------------------------------

TEST(TraceBufferTest, OverflowDropsAndCountsWithoutCorruptingEarlierEvents) {
  TraceBuffer ring(/*capacity=*/16, /*tid=*/3);
  EXPECT_EQ(ring.capacity(), 16u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    ring.Push(i, TraceEventKind::kAcquired, i);
  }
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.dropped(), 84u);
  std::vector<TraceEvent> events;
  EXPECT_EQ(ring.Drain(&events), 16u);
  ASSERT_EQ(events.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(events[i].timestamp, i);        // oldest events survive, in order
    EXPECT_EQ(events[i].arg, i);
    EXPECT_EQ(events[i].tid, 3);
    EXPECT_EQ(events[i].kind, static_cast<std::uint16_t>(TraceEventKind::kAcquired));
  }
  // Drained ring accepts events again and the drop counter persists.
  ring.Emit(TraceEventKind::kReleased, 7);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.dropped(), 84u);
}

TEST(TraceBufferTest, CapacityRoundsUpToPowerOfTwo) {
  TraceBuffer ring(/*capacity=*/20, /*tid=*/0);
  EXPECT_EQ(ring.capacity(), 32u);
}

TEST(TraceBufferTest, SpscLiveDrainSeesEveryUndroppedEventInOrder) {
  TraceBuffer ring(/*capacity=*/256, /*tid=*/1);
  constexpr std::uint32_t kEvents = 100000;
  std::thread producer([&ring] {
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      ring.Push(i, TraceEventKind::kAcquired, i);
    }
  });
  // Consume concurrently; args must arrive strictly increasing (drops skip
  // values but never reorder or tear).
  std::uint64_t popped = 0;
  std::int64_t last = -1;
  TraceEvent event;
  while (popped < kEvents) {
    if (ring.Pop(&event)) {
      EXPECT_GT(static_cast<std::int64_t>(event.arg), last);
      EXPECT_EQ(event.timestamp, event.arg);  // torn writes would break this
      last = static_cast<std::int64_t>(event.arg);
      ++popped;
      if (event.arg == kEvents - 1) {
        break;
      }
    } else if (ring.dropped() + popped >= kEvents) {
      break;
    }
  }
  producer.join();
  std::vector<TraceEvent> tail;
  ring.Drain(&tail);
  EXPECT_EQ(popped + tail.size() + ring.dropped(), kEvents);
}

TEST(TraceSinkTest, ScopedSinkRoutesEmitsAndRestores) {
  TraceBuffer ring(/*capacity=*/64, /*tid=*/0);
  TraceEmit(TraceEventKind::kAcquired, 1);  // no sink installed: discarded
  EXPECT_EQ(ring.size(), 0u);
  {
    ScopedTraceSink sink(&ring);
    TraceEmit(TraceEventKind::kAcquired, 2);
    EXPECT_EQ(ring.size(), 1u);
  }
  TraceEmit(TraceEventKind::kAcquired, 3);  // sink restored to null
  EXPECT_EQ(ring.size(), 1u);
}

// --- LockHandle trace hook ---------------------------------------------------

// The lock events in `ring` (futex events, which carry no site, are left
// out), each checked to be under `site`.
std::vector<TraceEventKind> DrainLockKinds(TraceBuffer& ring, std::uint32_t site) {
  std::vector<TraceEvent> events;
  ring.Drain(&events);
  std::vector<TraceEventKind> kinds;
  for (const TraceEvent& event : events) {
    const auto kind = static_cast<TraceEventKind>(event.kind);
    if (kind == TraceEventKind::kAcquireBegin || kind == TraceEventKind::kContended ||
        kind == TraceEventKind::kAcquired || kind == TraceEventKind::kReleased) {
      EXPECT_EQ(event.arg, site);
      kinds.push_back(kind);
    }
  }
  return kinds;
}

TEST(LockTraceHookTest, EveryRegisteredLockEmitsUnderOneSite) {
  using K = TraceEventKind;
  for (const std::string& name : RegisteredLockNames()) {
    TraceBuffer ring(/*capacity=*/256, /*tid=*/0);
    ScopedTraceSink sink(&ring);
    std::unique_ptr<LockHandle> handle = MakeLockOrThrow(name, {});
    handle->EnableTrace();
    EXPECT_EQ(handle->name(), name);
    ASSERT_NE(handle->trace_site(), 0u) << name;

    // Uncontended: the fast path succeeds, so no kContended.
    handle->lock();
    handle->unlock();
    EXPECT_EQ(DrainLockKinds(ring, handle->trace_site()),
              (std::vector<K>{K::kAcquireBegin, K::kAcquired, K::kReleased}))
        << name;

    // Contended: another thread (no sink, so its events are dropped) holds
    // the lock until this thread's traced acquire has reported contention,
    // begin then kContended, or for PTHREAD, which reports none, has begun;
    // then 20 ms more. A slow path that stays silent is released after a
    // second, so the check below fails instead of the test hanging.
    std::atomic<bool> held{false};
    std::thread holder([&] {
      handle->lock();
      held.store(true);
      const std::size_t reported = name == "PTHREAD" ? 1 : 2;
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
      while (ring.size() < reported && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      handle->unlock();
    });
    while (!held.load()) {
      std::this_thread::yield();
    }
    handle->lock();
    handle->unlock();
    holder.join();
    // One kContended from the lock's own slow path, inside the wait span.
    // PTHREAD's slow path is inside glibc, which reports none.
    const std::vector<K> contended =
        name == "PTHREAD"
            ? std::vector<K>{K::kAcquireBegin, K::kAcquired, K::kReleased}
            : std::vector<K>{K::kAcquireBegin, K::kContended, K::kAcquired, K::kReleased};
    EXPECT_EQ(DrainLockKinds(ring, handle->trace_site()), contended) << name;
  }
}

TEST(LockTraceHookTest, UntracedHandleEmitsNothing) {
  TraceBuffer ring(/*capacity=*/64, /*tid=*/0);
  ScopedTraceSink sink(&ring);
  std::unique_ptr<LockHandle> handle = MakeLockOrThrow("TAS", {});
  handle->lock();
  handle->unlock();
  EXPECT_EQ(handle->trace_site(), 0u);
  EXPECT_EQ(ring.size(), 0u);
}

// A lock that counts its lock() calls and, while `contended` is set, takes
// a slow path that reports contention on every retry.
class RetryingLock {
 public:
  void lock() {
    ++lock_calls;
    for (int retry = 0; contended && retry < 3; ++retry) {
      TraceContended();
    }
  }
  void unlock() {}

  bool contended = true;
  int lock_calls = 0;
};

TEST(LockTraceHookTest, TracedAcquireCallsLockOnceAndReportsOnce) {
  TraceBuffer ring(/*capacity=*/64, /*tid=*/0);
  ScopedTraceSink sink(&ring);
  LockAdapter<RetryingLock> handle("RETRY");
  handle.EnableTrace();
  handle.lock();
  handle.unlock();
  EXPECT_EQ(handle.impl().lock_calls, 1);
  using K = TraceEventKind;
  EXPECT_EQ(DrainLockKinds(ring, handle.trace_site()),
            (std::vector<K>{K::kAcquireBegin, K::kContended, K::kAcquired, K::kReleased}));
  // An acquire that never leaves its fast path reports nothing, and leaves
  // no site behind for a slow path outside a traced lock() to report on.
  handle.impl().contended = false;
  handle.lock();
  handle.unlock();
  EXPECT_EQ(DrainLockKinds(ring, handle.trace_site()),
            (std::vector<K>{K::kAcquireBegin, K::kAcquired, K::kReleased}));
  handle.impl().contended = true;
  handle.impl().lock();
  EXPECT_EQ(ring.size(), 0u);
}

// A spinlock whose unlock() lingers after the release, the way a MUTEX
// release lingers in its futex wake while the next holder already runs.
class LingeringUnlockLock {
 public:
  void lock() {
    while (held_.exchange(true, std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  void unlock() {
    held_.store(false, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

 private:
  std::atomic<bool> held_{false};
};

TEST(LockTraceHookTest, HoldSpansOfOneLockDoNotOverlap) {
  // Two threads share one traced handle and take turns, each releasing
  // while the other waits. kReleased is stamped before the release, so
  // every hold span [kAcquired, kReleased] ends before the other thread's
  // next one begins: a lock is never held twice at once.
  constexpr int kIterations = 50;
  LockAdapter<LingeringUnlockLock> handle("LINGER");
  handle.EnableTrace();
  TraceBuffer rings[2] = {TraceBuffer(1024, 0), TraceBuffer(1024, 1)};
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      ScopedTraceSink sink(&rings[t]);
      for (int i = 0; i < kIterations; ++i) {
        while (turn.load() != t) {
          std::this_thread::yield();
        }
        handle.lock();
        turn.store(1 - t);
        handle.unlock();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::vector<TraceEvent> events;
  for (TraceBuffer& ring : rings) {
    ASSERT_EQ(ring.dropped(), 0u);
    ring.Drain(&events);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.timestamp < b.timestamp; });
  int holder = -1;
  int acquired = 0;
  int overlaps = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == static_cast<std::uint16_t>(TraceEventKind::kAcquired)) {
      ++acquired;
      overlaps += holder != -1 ? 1 : 0;
      holder = event.tid;
    } else if (event.kind == static_cast<std::uint16_t>(TraceEventKind::kReleased) &&
               holder == event.tid) {
      holder = -1;
    }
  }
  EXPECT_EQ(acquired, 2 * kIterations);
  EXPECT_EQ(overlaps, 0);
}

// --- Exporter ----------------------------------------------------------------

std::vector<TraceEvent> SyntheticEvents() {
  TraceBuffer ring(/*capacity=*/256, /*tid=*/1);
  ring.Push(100, TraceEventKind::kPhaseBegin, 0);
  ring.Push(200, TraceEventKind::kPhaseEnd, 0);
  ring.Push(250, TraceEventKind::kPhaseBegin, 1);
  ring.Push(300, TraceEventKind::kAcquireBegin, 42);
  ring.Push(350, TraceEventKind::kContended, 42);
  ring.Push(400, TraceEventKind::kAcquired, 42);
  ring.Push(500, TraceEventKind::kReleased, 42);
  ring.Push(600, TraceEventKind::kFutexSleepBegin, 0);
  ring.Push(700, TraceEventKind::kFutexSleepEnd, 0);
  ring.Push(800, TraceEventKind::kFutexWake, 2);
  ring.Push(900, TraceEventKind::kEpochSwitch, 1);
  ring.Push(950, TraceEventKind::kWattsSample, 41500);
  ring.Push(1000, TraceEventKind::kPhaseEnd, 1);
  std::vector<TraceEvent> events;
  ring.Drain(&events);
  return events;
}

TEST(ChromeTraceTest, OutputIsStrictJson) {
  std::ostringstream out;
  ChromeTraceOptions options;
  options.process_name = "test \"quoted\" name\nwith control";  // must be escaped
  WriteChromeTrace(out, SyntheticEvents(), options);
  const std::string text = out.str();
  StrictJson parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
}

TEST(ChromeTraceTest, PairsSlicesAndDiscardsUnmatchedBegins) {
  std::vector<TraceEvent> events = SyntheticEvents();
  // An acquire-begin whose end was dropped must not become a slice.
  TraceEvent orphan;
  orphan.timestamp = 2000;
  orphan.kind = static_cast<std::uint16_t>(TraceEventKind::kAcquireBegin);
  orphan.tid = 1;
  orphan.arg = 99;
  events.push_back(orphan);
  std::ostringstream out;
  WriteChromeTrace(out, events, {});
  const std::string text = out.str();
  // Slices produced: lock_wait (300->400), lock_hold (400->500), futex_sleep
  // (600->700), phase:setup, phase:run. Instants: contended, futex_wake,
  // epoch_switch. Counter: watts.
  EXPECT_NE(text.find("\"lock_wait\""), std::string::npos);
  EXPECT_NE(text.find("\"lock_hold\""), std::string::npos);
  EXPECT_NE(text.find("\"futex_sleep\""), std::string::npos);
  EXPECT_NE(text.find("\"phase:setup\""), std::string::npos);
  EXPECT_NE(text.find("\"phase:run\""), std::string::npos);
  EXPECT_NE(text.find("\"contended\""), std::string::npos);
  EXPECT_NE(text.find("\"futex_wake\""), std::string::npos);
  EXPECT_NE(text.find("\"epoch_switch\""), std::string::npos);
  EXPECT_NE(text.find("\"watts\""), std::string::npos);
  EXPECT_EQ(text.find("99"), text.rfind("99"));  // orphan site appears at most once (tid row)
  StrictJson parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
}

TEST(ChromeTraceTest, EmptyEventListIsValidJson) {
  std::ostringstream out;
  WriteChromeTrace(out, {}, {});
  StrictJson parser(out.str());
  EXPECT_TRUE(parser.Valid()) << out.str();
}

// --- Metrics registry --------------------------------------------------------

TEST(MetricsTest, SnapshotConsistentUnderConcurrentIncrements) {
  MetricCounter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 200000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add(1);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent snapshots must be monotonic and never exceed the true total.
  std::uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t value = counter.Value();
    EXPECT_GE(value, last);
    EXPECT_LE(value, kThreads * kPerThread);
    last = value;
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, RegistryReturnsStableRefsAndSnapshots) {
  MetricsRegistry registry;
  MetricCounter& a = registry.Counter("test.a");
  MetricCounter& a2 = registry.Counter("test.a");
  EXPECT_EQ(&a, &a2);  // same name, same counter
  a.Add(5);
  registry.Gauge("test.watts").Set(41.5);
  registry.Histogram("test.lat").Record(100);
  registry.Histogram("test.lat").Record(200);
  EXPECT_EQ(registry.Counter("test.a").Value(), 5u);
  EXPECT_DOUBLE_EQ(registry.Gauge("test.watts").Value(), 41.5);
  EXPECT_EQ(registry.Histogram("test.lat").Snapshot().count(), 2u);
}

TEST(MetricsTest, WriteJsonIsStrictAndEscapes) {
  MetricsRegistry registry;
  registry.Counter("weird\"name\\with\nstuff").Add(1);
  registry.Gauge("g").Set(0.125);
  registry.Histogram("h").Record(1000);
  std::ostringstream out;
  registry.WriteJson(out);
  StrictJson parser(out.str());
  EXPECT_TRUE(parser.Valid()) << out.str();
}

// --- Energy sampler + TPP ----------------------------------------------------

// The sampler's one output: each window's average watts on the trace's
// counter track (arg = milliwatts). The model meter's power is constant,
// so every window reads the meter's watts.
TEST(EnergySamplerTest, WattsEventsCarryTheMeterWatts) {
  const PowerModel model(Topology::Detect(), PowerParams::PaperXeon());
  std::vector<ActivityState> states(static_cast<std::size_t>(model.topology().total_contexts()),
                                    ActivityState::kInactive);
  states[0] = ActivityState::kCritical;
  const double milliwatts = model.ComponentWatts(states, {}).total() * 1000.0;
  ModelMeter meter(model, 1);
  meter.Start();
  TraceBuffer ring(/*capacity=*/256, /*tid=*/9);
  {
    EnergySampler sampler(&meter, &ring);
    std::this_thread::sleep_for(std::chrono::milliseconds(3 * EnergySampler::kIntervalMs));
    sampler.Finish();
  }
  std::vector<TraceEvent> events;
  ring.Drain(&events);
  ASSERT_FALSE(events.empty());  // at least the final sample
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.kind, static_cast<std::uint16_t>(TraceEventKind::kWattsSample));
    // The event truncates to whole milliwatts; the window's joules over its
    // seconds may round either way first.
    EXPECT_NEAR(static_cast<double>(event.arg), milliwatts, 1.5);
  }
}

TEST(ScenarioEnergyTest, ModelMeteredRunReportsTpp) {
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 2;
  config.ops_per_thread = 2000;
  config.meter = MeterChoice::kModel;
  const ScenarioResult result = RunScenarioByName("kvstore/WT", config);
  EXPECT_EQ(result.meter_name, "model");
  EXPECT_GT(result.energy.total_joules(), 0.0);
  EXPECT_GT(result.energy.seconds, 0.0);
  EXPECT_GT(result.Tpp(), 0.0);
  EXPECT_GT(result.AvgWatts(), 0.0);
  EXPECT_EQ(result.total_ops, 2u * 2000u);
}

TEST(ScenarioEnergyTest, MeterOffLeavesEnergyZero) {
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 1;
  config.ops_per_thread = 500;
  config.meter = MeterChoice::kOff;
  const ScenarioResult result = RunScenarioByName("kvstore/WT", config);
  EXPECT_TRUE(result.meter_name.empty());
  EXPECT_DOUBLE_EQ(result.energy.total_joules(), 0.0);
  EXPECT_DOUBLE_EQ(result.Tpp(), 0.0);
}

TEST(ScenarioEnergyTest, DefaultMeterChainAlwaysYieldsAMeter) {
  // On any host: RAPL if readable, else the model. Never silently meterless.
  auto meter = MakeDefaultMeter(PowerModel(Topology::Detect(), PowerParams::PaperXeon()), 1);
  ASSERT_NE(meter, nullptr);
  EXPECT_TRUE(meter->Name() == "rapl" || meter->Name() == "model");
  // PowercapPresent must not throw/crash regardless of host permissions.
  (void)RaplMeter::PowercapPresent();
}

// --- Traced scenario ---------------------------------------------------------

TEST(ScenarioTraceTest, TracedRunLandsLockEventsInSession) {
  TraceSession::Instance().Reset();
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 2;
  config.ops_per_thread = 500;
  config.trace = true;
  config.trace_buffer_events = 1u << 12;
  config.meter = MeterChoice::kOff;
  const ScenarioResult result = RunScenarioByName("kvstore/WT", config);
  EXPECT_GT(result.total_ops, 0u);
  const std::vector<TraceEvent> events = TraceSession::Instance().Collect();
  ASSERT_FALSE(events.empty());
  bool saw_acquired = false;
  bool saw_phase = false;
  for (const TraceEvent& event : events) {
    if (event.kind == static_cast<std::uint16_t>(TraceEventKind::kAcquired)) {
      saw_acquired = true;
    }
    if (event.kind == static_cast<std::uint16_t>(TraceEventKind::kPhaseBegin)) {
      saw_phase = true;
    }
  }
  EXPECT_TRUE(saw_acquired);
  EXPECT_TRUE(saw_phase);
  // Exported form is strict JSON.
  std::ostringstream out;
  WriteChromeTrace(out, events, {});
  StrictJson parser(out.str());
  EXPECT_TRUE(parser.Valid());
  TraceSession::Instance().Reset();
  EXPECT_EQ(TraceSession::Instance().buffer_count(), 0u);
}

// Setup runs untraced, so kvstore/WT's 10,000-key preload cannot fill the
// driver ring and drop the phase markers: both phases keep their begin and
// end events on the driver's tid, and nothing is dropped.
TEST(ScenarioTraceTest, PreloadLeavesBothPhaseSpansWhole) {
  TraceSession::Instance().Reset();
  ScenarioConfig config;
  config.lock_name = "MUTEX";
  config.threads = 2;
  config.ops_per_thread = 1000;
  config.trace = true;
  config.meter = MeterChoice::kOff;
  RunScenarioByName("kvstore/WT", config);
  EXPECT_EQ(TraceSession::Instance().dropped(), 0u);
  int markers[2][2] = {};  // [phase][begin, end]
  for (const TraceEvent& event : TraceSession::Instance().Collect()) {
    const bool begin = event.kind == static_cast<std::uint16_t>(TraceEventKind::kPhaseBegin);
    if ((begin || event.kind == static_cast<std::uint16_t>(TraceEventKind::kPhaseEnd)) &&
        event.arg < 2) {
      EXPECT_EQ(event.tid, config.threads);
      ++markers[event.arg][begin ? 0 : 1];
    }
  }
  for (const auto& phase : markers) {
    EXPECT_EQ(phase[0], 1);
    EXPECT_EQ(phase[1], 1);
  }
  TraceSession::Instance().Reset();
}

// The driver samples the meter only on metered, traced runs; the watts
// track lands on the sampler's trace tid (threads + 1).
TEST(ScenarioTraceTest, MeteredTracedRunCarriesAWattsTrack) {
  for (const MeterChoice meter : {MeterChoice::kModel, MeterChoice::kOff}) {
    TraceSession::Instance().Reset();
    ScenarioConfig config;
    config.lock_name = "MUTEX";
    config.threads = 2;
    config.ops_per_thread = 500;
    config.trace = true;
    config.trace_buffer_events = 1u << 12;
    config.meter = meter;
    RunScenarioByName("kvstore/WT", config);
    std::size_t watts_events = 0;
    for (const TraceEvent& event : TraceSession::Instance().Collect()) {
      if (event.kind == static_cast<std::uint16_t>(TraceEventKind::kWattsSample)) {
        EXPECT_EQ(event.tid, config.threads + 1);
        ++watts_events;
      }
    }
    EXPECT_EQ(watts_events > 0, meter == MeterChoice::kModel);
  }
  TraceSession::Instance().Reset();
}

}  // namespace
}  // namespace lockin
