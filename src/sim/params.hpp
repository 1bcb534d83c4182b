// Calibration constants for the simulated Xeon testbed.
//
// Every latency below is a number the paper reports for its 2-socket Ivy
// Bridge Xeon E5-2680 v2 (sections 3-5); the power constants live in
// src/energy/power_model.hpp. The simulated machine, futex or locks read
// each one, so the substitution is auditable: change a constant here and
// every figure reproduction follows.
#ifndef SRC_SIM_PARAMS_HPP_
#define SRC_SIM_PARAMS_HPP_

#include <cstdint>

namespace lockin {

struct SimParams {
  // --- Core clock ---------------------------------------------------------
  // Cycles per second at the max VF point (2.8 GHz Xeon).
  double cycles_per_second = 2.8e9;

  // --- Coherence (section 4.2 / 5.1) --------------------------------------
  // "'Waking up' a locally-spinning thread takes two cache-line transfers
  // (i.e., 280 cycles)" => one hop ~140 cycles.
  std::uint64_t line_transfer_cycles = 140;
  // Extra invalidation-burst cost per local-spinning waiter when a TTAS or
  // TICKET lock is released ("burst of requests on a single cache line when
  // the lock is released", section 5.2).
  std::uint64_t burst_per_waiter_cycles = 8;
  // Extra cost per waiter for TAS global spinning: continuous atomics keep
  // the line bouncing; the release itself must queue behind them ("the
  // stress on the lock ... makes the release of TAS very expensive").
  std::uint64_t tas_release_per_waiter_cycles = 20;

  // --- futex (section 4.3, Figure 6) ---------------------------------------
  // "A futex-sleep call (i.e., enqueuing behind the lock and descheduling
  // the thread) takes around 2100 cycles."
  std::uint64_t futex_sleep_cycles = 2100;
  // "Approximately 2700 cycles of the wake-up call."
  std::uint64_t futex_wake_call_cycles = 2700;
  // "The turnaround time is at least 7000 cycles": wake call + idle-to-
  // active + scheduling of the woken thread.
  std::uint64_t futex_turnaround_cycles = 7000;
  // "When the delay between the calls is very large (>600K cycles), the
  // turnaround latency explodes, because the hardware context sleeps in a
  // deeper idle state."
  std::uint64_t deep_idle_threshold_cycles = 600000;
  // Additional turnaround penalty once in a deep idle state (Figure 6 shows
  // turnaround climbing towards ~100K cycles at 10^7-cycle delays).
  std::uint64_t deep_idle_penalty_cycles = 85000;
  // Kernel futex hash-bucket lock hold times; operations on the same
  // address serialize on it ("operations on the same address (same MUTEX)
  // do contend on kernel level"). A sleep call holds the bucket for most of
  // its ~2100 cycles, which is why "for low delays between the two calls,
  // the wake-up call is more expensive as it waits behind a kernel lock for
  // the completion of the sleep call" (Figure 6).
  std::uint64_t futex_sleep_bucket_cycles = 2000;
  std::uint64_t futex_wake_bucket_cycles = 800;

  // --- Scheduler ------------------------------------------------------------
  // Time-slice when runnable threads exceed hardware contexts. Linux CFS
  // grants a few ms; 2.8M cycles ~= 1 ms on the paper's Xeon.
  std::uint64_t scheduler_quantum_cycles = 2800000;

  static SimParams PaperXeon() { return SimParams{}; }
};

}  // namespace lockin

#endif  // SRC_SIM_PARAMS_HPP_
