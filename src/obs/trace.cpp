#include "src/obs/trace.hpp"

#include <algorithm>

namespace lockin {

thread_local constinit TraceBuffer* tls_trace_sink = nullptr;
thread_local constinit std::uint32_t tls_acquire_site = 0;

void EmitContended(std::uint32_t site) {
  tls_acquire_site = 0;
  TraceEmit(TraceEventKind::kContended, site);
}

namespace {

std::uint32_t RoundUpPowerOfTwo(std::uint32_t value) {
  std::uint32_t pow2 = 1;
  while (pow2 < value) {
    pow2 <<= 1;
  }
  return pow2;
}

}  // namespace

TraceBuffer::TraceBuffer(std::uint32_t capacity, std::uint16_t tid)
    : capacity_(RoundUpPowerOfTwo(capacity == 0 ? 1 : capacity)),
      mask_(capacity_ - 1),
      tid_(tid) {
  ring_.resize(capacity_);
}

bool TraceBuffer::Pop(TraceEvent* out) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  if (tail == head_.load(std::memory_order_acquire)) {
    return false;
  }
  *out = ring_[tail & mask_];
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

std::size_t TraceBuffer::Drain(std::vector<TraceEvent>* out) {
  std::size_t drained = 0;
  TraceEvent event;
  while (Pop(&event)) {
    out->push_back(event);
    ++drained;
  }
  return drained;
}

std::size_t TraceBuffer::size() const {
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  return static_cast<std::size_t>(head - tail);
}

TraceSession& TraceSession::Instance() {
  static TraceSession* session = new TraceSession();
  return *session;
}

TraceBuffer* TraceSession::NewBuffer(std::uint16_t tid, std::uint32_t capacity) {
  std::lock_guard<std::mutex> guard(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>(capacity, tid));
  return buffers_.back().get();
}

std::vector<TraceEvent> TraceSession::Collect() {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (const std::unique_ptr<TraceBuffer>& buffer : buffers_) {
      buffer->Drain(&events);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.timestamp < b.timestamp;
                   });
  return events;
}

std::uint64_t TraceSession::dropped() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::uint64_t total = 0;
  for (const std::unique_ptr<TraceBuffer>& buffer : buffers_) {
    total += buffer->dropped();
  }
  return total;
}

std::size_t TraceSession::buffer_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return buffers_.size();
}

void TraceSession::Reset() {
  std::lock_guard<std::mutex> guard(mu_);
  buffers_.clear();
}

std::uint32_t NextTraceSiteId() {
  static std::atomic<std::uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace lockin
