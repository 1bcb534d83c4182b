// Discrete-event simulation engine.
//
// A minimal calendar: events are (time, callback) pairs executed in
// timestamp order (FIFO among equal timestamps). The machine model, futex
// model and lock models all schedule against one engine, so a whole
// benchmark run is a deterministic event sequence -- repeatable bit-for-bit
// across runs, which the tests rely on.
//
// The event core is built for throughput (simulator wall-clock is this
// repo's iteration speed -- every figure bench and ctest runs on it):
//
//   * Events live in slab-allocated slots with the callback stored inline
//     (InlineFunction), recycled through a free list: zero allocator
//     traffic per event in steady state (pool_stats() proves it).
//   * The ready queue is a 4-ary heap of 16-byte POD entries -- shallower
//     than a binary heap and cache-friendlier than sifting fat elements,
//     which suits the benches' near-monotonic schedule pattern.
//   * Handles are generation-tagged: Cancel() is O(1), a stale handle
//     (event already ran, slot since recycled) is detected by generation
//     mismatch, and a cancelled pending event becomes a tombstone reclaimed
//     lazily when the queue reaches it -- nothing grows without bound.
#ifndef SRC_SIM_ENGINE_HPP_
#define SRC_SIM_ENGINE_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/callback.hpp"

namespace lockin {

using SimTime = std::uint64_t;  // cycles

// Generation-tagged event handle: (generation << kSlotBits) | slot index,
// offset so that 0 is never a valid handle (callers use 0 as "none").
using EventId = std::uint64_t;

class SimEngine {
 public:
  SimEngine() = default;

  SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` cycles from now. Returns a handle that
  // Cancel() accepts.
  EventId Schedule(SimTime delay, SimCallback fn);

  // Cancels a pending event in O(1); no-op if it already ran, was already
  // cancelled, or the handle is stale/unknown.
  void Cancel(EventId id);

  // Runs events until the queue drains or `until` is passed (events with
  // timestamp > until stay queued and now() stops at `until`).
  void RunUntil(SimTime until);

  // Runs until the queue is empty.
  void RunAll();

  std::size_t pending_events() const { return live_; }
  std::uint64_t executed_events() const { return executed_; }

  // Cancelled events still occupying queue memory (drained lazily as the
  // clock reaches them). Bounded by the queue size; cancelling an event
  // that already ran must not grow it.
  std::size_t cancel_backlog() const { return tombstones_; }

  // Allocator-traffic counters. In steady state (events scheduled and
  // executed at a stable pending depth) slab_blocks, queue_capacity and
  // heap_spills must not move: that is the "zero heap allocations per
  // event" contract SimEngine.SteadyStateRecyclesSlots and the benchmark's
  // sim.steady_pool_allocs metric check.
  struct PoolStats {
    std::uint64_t slab_blocks = 0;     // event-slot slabs allocated (never freed)
    std::uint64_t slot_capacity = 0;   // total event slots across slabs
    std::uint64_t queue_capacity = 0;  // 4-ary heap backing-array capacity
    std::uint64_t heap_spills = 0;     // callbacks too large for inline storage
    std::uint64_t live_events = 0;
    std::uint64_t tombstones = 0;
  };
  PoolStats pool_stats() const;

 private:
  // Slot index and generation packed into an EventId. 24 bits of slot
  // index caps simultaneously-pending events at ~16.7M (the benches peak
  // in the hundreds); 40 bits of generation outlast any realistic run.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint32_t kSlabSize = 1024;  // slots per slab
  static constexpr std::uint32_t kNoFreeSlot = ~0u;

  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  struct EventSlot {
    SimCallback fn;
    std::uint64_t generation = 1;  // bumped on free; 0 never used, so id != 0
    std::uint32_t next_free = kNoFreeSlot;
    SlotState state = SlotState::kFree;
  };

  // 16-byte POD heap entry. Ordering key is (time, order); `order` packs
  // the global schedule sequence number above the slot index, so comparing
  // `order` alone is the FIFO tiebreak (sequence numbers are unique) while
  // still carrying the slot for O(1) lookup on pop.
  struct HeapEntry {
    SimTime time;
    std::uint64_t order;  // (seq << kSlotBits) | slot

    bool Before(const HeapEntry& other) const {
      return time != other.time ? time < other.time : order < other.order;
    }
  };

  EventSlot& SlotAt(std::uint32_t index) {
    return slabs_[index / kSlabSize][index % kSlabSize];
  }
  const EventSlot& SlotAt(std::uint32_t index) const {
    return slabs_[index / kSlabSize][index % kSlabSize];
  }

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t index);

  void HeapPush(HeapEntry entry);
  void HeapPopTop();

  // Pops tombstones and the next live event; returns false when drained.
  // On true, `now_` is advanced and the callback is moved into `fn`.
  bool PopNext(SimTime until, SimCallback& fn);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t heap_spills_ = 0;

  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<EventSlot[]>> slabs_;
  std::uint32_t free_head_ = kNoFreeSlot;
};

}  // namespace lockin

#endif  // SRC_SIM_ENGINE_HPP_
