// LockScope event tracing: per-thread lock-free rings of 16-byte events.
//
// The paper's argument rests on *seeing* what a lock does -- how long
// waiters spin vs. sleep, how often they hit the kernel, when the adaptive
// runtime switches backends. This layer records exactly those moments as
// fixed-size rdtsc-stamped events in per-thread SPSC ring buffers:
//
//   * the owning thread is the only producer (Push/Emit), an exporter is
//     the only consumer (Pop/Drain), so the ring needs no locks -- one
//     relaxed head load, one acquire tail load and one release head store
//     per event;
//   * capacity is bounded and fixed at construction; when the ring is full
//     new events are *dropped and counted* (never overwriting older events,
//     so a partial trace is always a valid prefix);
//   * events carry rdtsc timestamps, which the Chrome-trace writer
//     (src/obs/export.hpp) converts to microseconds.
//
// Cost when off: the static lock tier has no emit sites at all; an
// untraced LockHandle pays one member test per lock()/unlock(); slow paths
// (futex syscalls, adaptive epoch maintenance) pay one thread-local pointer
// load and a predictable branch.
#ifndef SRC_OBS_TRACE_HPP_
#define SRC_OBS_TRACE_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/platform/cacheline.hpp"
#include "src/platform/cycles.hpp"

namespace lockin {

// Event vocabulary. Values are stable (they appear in exported traces);
// 13 and 14 are unused.
enum class TraceEventKind : std::uint16_t {
  kNone = 0,
  kAcquireBegin = 1,     // arg = lock site id; start of a lock() call
  kAcquired = 2,         // arg = site id; lock() returned
  kReleased = 3,         // arg = site id; unlock() about to release
  kContended = 4,        // arg = site id; fast path failed, entering slow path
  kFutexSleepBegin = 5,  // entering FUTEX_WAIT (the kernel round-trip)
  kFutexSleepEnd = 6,    // arg = FutexWaitResult; back from FUTEX_WAIT
  kFutexWake = 7,        // arg = threads woken by this FUTEX_WAKE
  kEpochSwitch = 8,      // arg = new AdaptiveBackend; adaptive lock switched
  kPhaseBegin = 9,       // arg = phase id (driver phases: 0 setup, 1 run)
  kPhaseEnd = 10,        // arg = phase id
  kWattsSample = 11,     // arg = milliwatts (periodic sampler counter track)
  kLockdepViolation = 12,  // arg = site id in a reported violation chain
  kWatchdogStall = 15,     // arg = worker index reported stalled
  kFailpointFire = 16,     // arg = FailpointId that triggered
};

// One trace record. 16 bytes, POD, cache-friendly: four events per line.
struct TraceEvent {
  std::uint64_t timestamp = 0;  // rdtsc cycles
  std::uint16_t kind = 0;       // TraceEventKind
  std::uint16_t tid = 0;        // logical thread index within the run
  std::uint32_t arg = 0;        // kind-specific payload (site id, count, ...)
};
static_assert(sizeof(TraceEvent) == 16, "trace events are fixed 16-byte records");

// Bounded single-producer single-consumer event ring. The producer is the
// thread the buffer is installed on (ScopedTraceSink below); the consumer
// is whoever drains it for export -- either after the workers joined or
// concurrently (the SPSC protocol makes a live drain safe).
class TraceBuffer {
 public:
  static constexpr std::uint32_t kDefaultCapacity = 1u << 14;  // 256 KiB/thread

  // `capacity` is rounded up to a power of two; `tid` labels every event
  // emitted through this buffer.
  explicit TraceBuffer(std::uint32_t capacity = kDefaultCapacity, std::uint16_t tid = 0);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  // Producer side. Emit stamps with rdtsc; Push takes an explicit rdtsc
  // timestamp (the energy sampler stamps the end of its window). A full ring
  // drops the event and counts it -- earlier events are never overwritten.
  void Emit(TraceEventKind kind, std::uint32_t arg) { Push(ReadCycles(), kind, arg); }
  void Push(std::uint64_t timestamp, TraceEventKind kind, std::uint32_t arg) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) == capacity_) {
      drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    TraceEvent& slot = ring_[head & mask_];
    slot.timestamp = timestamp;
    slot.kind = static_cast<std::uint16_t>(kind);
    slot.tid = tid_;
    slot.arg = arg;
    head_.store(head + 1, std::memory_order_release);
  }

  // Consumer side.
  bool Pop(TraceEvent* out);
  // Appends everything currently in the ring to *out; returns the count.
  std::size_t Drain(std::vector<TraceEvent>* out);

  std::size_t size() const;
  std::uint32_t capacity() const { return capacity_; }
  std::uint16_t tid() const { return tid_; }
  std::uint64_t dropped() const { return drops_.load(std::memory_order_relaxed); }

 private:
  std::vector<TraceEvent> ring_;
  std::uint32_t capacity_;
  std::uint64_t mask_;
  std::uint16_t tid_;
  // Head and tail on separate lines: the producer writes head_, the
  // consumer writes tail_, and neither should invalidate the other's line
  // on every event.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> drops_{0};
};

// --- Thread-local sink -------------------------------------------------------

// The calling thread's current trace sink; null (the default) means events
// are discarded at the emit site for the cost of one TLS load + branch.
// constinit: no TLS guard variable, so the load compiles to a plain
// fs-relative mov.
extern thread_local constinit TraceBuffer* tls_trace_sink;

// LockLint lockdep taps the same event stream (src/analysis/lockdep.hpp).
// Declared here, defined in lockdep.cpp, so the guard costs one relaxed
// load + predicted branch and this header needs no analysis include.
extern std::atomic<bool> g_lockdep_enabled;
void LockdepOnTraceEvent(TraceEventKind kind, std::uint32_t arg);

// Emits into the calling thread's sink, if any. This is the hook the
// runtime-instrumented paths use (futex syscalls, adaptive epochs, traced
// LockHandles) -- and, when enabled, the lockdep lock-order detector's
// event source.
inline void TraceEmit(TraceEventKind kind, std::uint32_t arg) {
  if (g_lockdep_enabled.load(std::memory_order_relaxed)) {
    LockdepOnTraceEvent(kind, arg);
  }
  TraceBuffer* sink = tls_trace_sink;
  if (sink != nullptr) {
    sink->Emit(kind, arg);
  }
}

// Installs `buffer` as the calling thread's sink for the current scope.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceBuffer* buffer) : previous_(tls_trace_sink) {
    tls_trace_sink = buffer;
  }
  ~ScopedTraceSink() { tls_trace_sink = previous_; }

  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceBuffer* previous_;
};

// --- Session: buffer registry for one capture --------------------------------

// Owns the ring buffers of one capture so they outlive their producer
// threads (workers join before export). Creation is mutex-protected (once
// per thread per run); the hot path never touches the session.
class TraceSession {
 public:
  // The process-wide session used by the drivers and CLIs.
  static TraceSession& Instance();

  // Creates and registers a buffer; the session keeps ownership. Thread-safe.
  TraceBuffer* NewBuffer(std::uint16_t tid, std::uint32_t capacity = TraceBuffer::kDefaultCapacity);

  // Drains every registered buffer into one timestamp-sorted vector.
  std::vector<TraceEvent> Collect();

  // Total events dropped across all buffers (ring-full back-pressure).
  std::uint64_t dropped() const;

  std::size_t buffer_count() const;

  // Discards all buffers (between unrelated captures).
  void Reset();

 private:
  TraceSession() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

// Process-wide id generator for traced lock sites (each traced lock
// instance gets a distinct arg value, so exports can tell locks apart).
std::uint32_t NextTraceSiteId();

}  // namespace lockin

#endif  // SRC_OBS_TRACE_HPP_
