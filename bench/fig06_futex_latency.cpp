// Figure 6: latency of futex operations vs the delay between the sleep and
// wake-up invocations.
//
// Paper: the turnaround (wake invocation -> woken thread running) is at
// least ~7000 cycles and always above the wake-call latency; for low delays
// the wake call queues behind the in-flight sleep call's kernel lock; past
// ~600K-cycle delays the turnaround explodes because the context fell into
// a deep idle state.
//
// The series comes from the simulated Xeon's futex model (src/sim/waiting).
#include "bench/bench_common.hpp"
#include "src/sim/waiting.hpp"

int main(int argc, char** argv) {
  using namespace lockin;
  const BenchOptions options = BenchOptions::Parse(argc, argv);

  TextTable table({"delay_cycles", "wake_call_cycles", "turnaround_cycles"});
  for (std::uint64_t delay :
       {100ULL, 316ULL, 1000ULL, 3160ULL, 10000ULL, 31600ULL, 100000ULL, 316000ULL,
        1000000ULL, 3160000ULL, 10000000ULL}) {
    const FutexLatencyPoint p = MeasureFutexLatency(delay, options.quick ? 5 : 15);
    table.AddNumericRow(std::to_string(delay), {p.wake_call_cycles, p.turnaround_cycles}, 0);
  }
  EmitTable(table, options,
            "Figure 6: futex latencies (paper: turnaround >= 7000 cycles, above the wake "
            "call; wake call expensive at low delays; explosion past ~600K-cycle delays)");
  return 0;
}
