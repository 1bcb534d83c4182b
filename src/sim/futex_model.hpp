// Simulated Linux futex.
//
// Models the costs measured in section 4.3 of the paper:
//   * a sleep call costs ~2100 cycles of kernel time before the context is
//     released to the OS;
//   * a wake call costs ~2700 cycles on the waker's critical path;
//   * the woken thread runs only after the full turnaround (>= 7000
//     cycles): wake call + idle-to-active switch + scheduling;
//   * sleeps longer than ~600K cycles drop the context into a deep idle
//     state whose exit adds tens of thousands of cycles (Figure 6's
//     "explosion");
//   * sleep and wake calls on the same address serialize on a kernel
//     hash-bucket lock, so concurrent futex traffic queues (the SQLite
//     kernel-time pathology in section 6).
//
// A wake that arrives while a sleeper is still executing its sleep call
// (i.e., before it blocked) is a "sleep miss": the sleeper returns
// immediately, wasting both calls -- the behaviour behind the section 4.4
// table where periods shorter than the sleep latency save no power.
#ifndef SRC_SIM_FUTEX_MODEL_HPP_
#define SRC_SIM_FUTEX_MODEL_HPP_

#include <cstdint>
#include <deque>

#include "src/platform/rng.hpp"
#include "src/sim/callback.hpp"
#include "src/sim/machine.hpp"

namespace lockin {

class SimFutex {
 public:
  // Why a woken sleeper resumed.
  enum class WakeReason { kSignalled, kTimedOut, kSleepMiss };

  // Wake continuations ride inside engine-event closures, so they are
  // deliberately smaller than SimCallback (see callback.hpp).
  using WakeCallback = InlineFunction<void(WakeReason), 64>;

  explicit SimFutex(SimMachine* machine, std::uint64_t seed = 17);

  // The calling thread (must be running) sleeps on this futex. The sequence
  // is: kernel entry (bucket queueing + sleep-call cycles), block, and
  // later `on_wake(reason)` once the thread is *running* again.
  // timeout_cycles == 0 means no timeout.
  void Sleep(int tid, std::uint64_t timeout_cycles, WakeCallback on_wake);

  // The calling thread wakes up to `count` sleepers; `on_done` fires when
  // the wake call returns (it is on the waker's critical path).
  void Wake(int tid, int count, SimCallback on_done);

  // Sleepers currently blocked (not counting ones still entering the kernel).
  int sleeper_count() const { return static_cast<int>(sleepers_.size()); }

  // Threads inside Sleep() that have not blocked yet.
  int entering_count() const { return entering_; }

  struct Stats {
    std::uint64_t sleep_calls = 0;
    std::uint64_t sleep_misses = 0;
    std::uint64_t wake_calls = 0;
    std::uint64_t threads_woken = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t deep_sleeps = 0;  // wakes that paid the deep-idle penalty

    Stats& operator+=(const Stats& other) {
      sleep_calls += other.sleep_calls;
      sleep_misses += other.sleep_misses;
      wake_calls += other.wake_calls;
      threads_woken += other.threads_woken;
      timeouts += other.timeouts;
      deep_sleeps += other.deep_sleeps;
      return *this;
    }
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  struct Sleeper {
    int tid;
    SimTime slept_at;
    EventId timeout_event;
    WakeCallback on_wake;
  };

  // Kernel hash-bucket lock: returns the queueing delay for an operation
  // that holds the bucket for `hold_cycles`, advancing the busy horizon.
  std::uint64_t BucketDelay(std::uint64_t hold_cycles);

  // Computes the wake->running delay for a sleeper that blocked at
  // `slept_at` (idle-to-active + scheduling, deep-idle penalty included).
  std::uint64_t TurnaroundTail(SimTime slept_at);

  void DeliverWake(Sleeper sleeper, WakeReason reason, std::uint64_t extra_delay = 0);

  SimMachine* machine_;
  // Scheduling noise on the wake->running tail (+-10%). Without it the
  // deterministic engine phase-locks woken threads into the lock's free
  // windows, hiding the turnaround latency entirely -- an artifact real
  // schedulers never exhibit.
  Xoshiro256 jitter_rng_;
  std::deque<Sleeper> sleepers_;
  // Per-tid continuation for an in-flight Wake call (the on_done must not
  // ride inside the kernel-entry closure -- see callback.hpp).
  SlotVector<SimCallback> wake_done_;
  int entering_ = 0;
  // Wakes that arrived while the target was still entering the kernel.
  int pending_misses_ = 0;
  SimTime bucket_busy_until_ = 0;
  Stats stats_;
};

}  // namespace lockin

#endif  // SRC_SIM_FUTEX_MODEL_HPP_
