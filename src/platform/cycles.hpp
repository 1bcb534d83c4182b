// Cycle counting.
//
// The paper expresses every latency (futex sleep ~2100 cycles, wake-up call
// ~2700 cycles, turnaround >= 7000 cycles, MUTEXEE spin budget ~8000 cycles)
// in CPU cycles. On x86-64 we read the constant-rate TSC directly; on other
// platforms we fall back to std::chrono and a calibrated cycles-per-ns
// factor, so the same budgets work everywhere.
#ifndef SRC_PLATFORM_CYCLES_HPP_
#define SRC_PLATFORM_CYCLES_HPP_

#include <cstdint>

namespace lockin {

// Reads the timestamp counter. Monotonic and constant-rate on every CPU made
// this decade (constant_tsc / nonstop_tsc).
inline std::uint64_t ReadCycles() {
#if defined(__x86_64__)
  std::uint32_t lo;
  std::uint32_t hi;
  asm volatile("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
#elif defined(__aarch64__)
  std::uint64_t cnt;
  asm volatile("mrs %0, cntvct_el0" : "=r"(cnt));
  return cnt;
#else
  return FallbackCycleClock();
#endif
}

// Cycles per nanosecond, measured once at startup against the steady clock.
// Used to convert the paper's cycle budgets into wall-clock durations (e.g.
// futex timeouts) and back.
double CyclesPerNs();

// Converts a cycle count into nanoseconds using the calibrated TSC rate.
std::uint64_t CyclesToNs(std::uint64_t cycles);

// Converts nanoseconds into cycles using the calibrated TSC rate.
std::uint64_t NsToCycles(std::uint64_t ns);

// std::chrono-based fallback for platforms without a cheap cycle counter.
std::uint64_t FallbackCycleClock();

// Spins (reading the TSC) for approximately `cycles` cycles. The workhorse
// for "critical section of N cycles" workloads used across the benchmarks.
// Inline with a zero fast path: measured loops call this with 0 for "no
// critical section", which must not cost a call plus two TSC reads.
inline void SpinForCycles(std::uint64_t cycles) {
  if (cycles == 0) {
    return;
  }
  const std::uint64_t start = ReadCycles();
  while (ReadCycles() - start < cycles) {
  }
}

}  // namespace lockin

#endif  // SRC_PLATFORM_CYCLES_HPP_
