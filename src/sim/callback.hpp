// Fixed-capacity move-only callables for the simulator's hot path.
//
// Every simulated cycle of work is an event callback, so the cost of
// storing and moving callbacks *is* the simulator's overhead. std::function
// heap-allocates its closure and re-allocates on every copy; InlineFunction
// stores the closure inline in a fixed-size buffer instead, so scheduling
// an event costs a couple of stores and no allocator traffic. Closures
// larger than the buffer still work (they spill to the heap) but the spill
// is counted by SimEngine's pool stats, so a regression that re-introduces
// per-event allocation shows in the benchmark's sim.steady_pool_allocs
// metric and fails SimEngine.SteadyStateRecyclesSlots.
//
// The capacity ceiling is a design constraint, not a limitation: code that
// wants to thread a continuation through several layers must not wrap
// callbacks in ever-fatter closures (each wrap adds capture overhead) but
// park the continuation in a per-thread slot (SlotVector below) and pass a
// thin {object, tid} closure instead. That is what keeps the event core
// allocation-free in steady state.
#ifndef SRC_SIM_CALLBACK_HPP_
#define SRC_SIM_CALLBACK_HPP_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace lockin {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT: implicit like std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT: implicit like std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      // Spill: closure too large for the inline buffer. Functional but
      // allocates; SimEngine counts these so benches can flag regressions.
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(fn));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  R operator()(Args... args) { return ops_->invoke(buf_, std::forward<Args>(args)...); }

  explicit operator bool() const { return ops_ != nullptr; }
  bool heap_allocated() const { return ops_ != nullptr && ops_->heap; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    // Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* buf);
    bool heap;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* buf, Args&&... args) -> R {
        return (*static_cast<Fn*>(buf))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* buf) { static_cast<Fn*>(buf)->~Fn(); },
      false,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* buf, Args&&... args) -> R {
        return (**reinterpret_cast<Fn**>(buf))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      },
      [](void* buf) { delete *reinterpret_cast<Fn**>(buf); },
      true,
  };

  void MoveFrom(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

// The engine's event callback. Sized to hold the fattest hot-path closure
// in the simulator (SimFutex::Sleep's kernel-entry continuation, which
// carries a WakeCallback inline) with headroom.
using SimCallback = InlineFunction<void(), 128>;

// Per-thread preallocated continuation slots, indexed by tid. The lock and
// futex models used to keep a per-acquire std::function map (hash + heap
// alloc per acquire); a thread only ever has one continuation outstanding
// per layer, so a flat tid-indexed slot array is enough. Grows to the max
// tid once, then stays allocation-free.
template <typename Fn>
class SlotVector {
 public:
  void Put(int tid, Fn fn) {
    if (static_cast<std::size_t>(tid) >= slots_.size()) {
      slots_.resize(static_cast<std::size_t>(tid) + 1);
    }
    slots_[static_cast<std::size_t>(tid)] = std::move(fn);
  }

  // Moves the continuation out, leaving the slot empty. Callers must move
  // out *before* invoking: the continuation may re-enter and refill it.
  Fn Take(int tid) { return std::move(slots_[static_cast<std::size_t>(tid)]); }

  bool Has(int tid) const {
    return static_cast<std::size_t>(tid) < slots_.size() &&
           static_cast<bool>(slots_[static_cast<std::size_t>(tid)]);
  }

 private:
  std::vector<Fn> slots_;
};

}  // namespace lockin

#endif  // SRC_SIM_CALLBACK_HPP_
