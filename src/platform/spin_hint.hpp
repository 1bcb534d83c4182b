// Spin-wait pausing primitives.
//
// Section 4.2 of the paper shows that the choice of pausing instruction in a
// spin-wait loop has a measurable power effect on Ivy Bridge Xeons:
//   * plain loads retire one per cycle (CPI ~1) and burn maximal power;
//   * `pause` raises CPI to ~4.6 but *increases* power by up to 4%;
//   * a memory barrier before the load stalls speculation and lowers power
//     below both (up to 7% below pause), which is why MUTEXEE and the
//     spinlocks in this library default to mfence-based pausing.
#ifndef SRC_PLATFORM_SPIN_HINT_HPP_
#define SRC_PLATFORM_SPIN_HINT_HPP_

#include <atomic>

namespace lockin {

// The pausing technique used inside a spin-wait loop. Names follow the
// paper's Figure 4 series.
enum class PauseKind {
  kPause,   // x86 `pause` ("local-pause")
  kMfence,  // full memory barrier before the load ("local-mbar"); default
  kYield,   // sched_yield-ish; for oversubscribed hosts and unit tests
};

// Releases the CPU to the scheduler; out-of-line to keep <sched.h> out of
// this header.
void SpinYield();

// One pause step of the given kind. Inlined so the spin loop stays tight.
inline void SpinPause(PauseKind kind) {
  switch (kind) {
    case PauseKind::kPause:
#if defined(__x86_64__)
      asm volatile("pause");
#else
      std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
      break;
    case PauseKind::kMfence:
      std::atomic_thread_fence(std::memory_order_seq_cst);
      break;
    case PauseKind::kYield:
      SpinYield();
      break;
  }
}

}  // namespace lockin

#endif  // SRC_PLATFORM_SPIN_HINT_HPP_
