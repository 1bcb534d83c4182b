// Linux futex(2) wrappers.
//
// Section 4.3 of the paper: "The futex system call implements sleeping in
// Linux and is used by pthread mutex locks." These wrappers expose exactly
// the two operations locks need — wait-if-value-matches and wake-N — plus a
// timed wait used by MUTEXEE's optional fairness timeout (Figure 10).
//
// The instrumented variant counts sleeps, wakes, spurious returns and
// timeouts, which is how the MUTEXEE reproduction validates the paper's
// claim that it "keeps most lock handovers futex free".
#ifndef SRC_FUTEX_FUTEX_HPP_
#define SRC_FUTEX_FUTEX_HPP_

#include <atomic>
#include <cstdint>

namespace lockin {

// Result of a futex wait call.
enum class FutexWaitResult {
  kWoken,       // returned 0: woken by FUTEX_WAKE (or spuriously)
  kValueStale,  // EAGAIN: *addr != expected at call time (a "sleep miss")
  kTimedOut,    // ETIMEDOUT: the timed wait expired
  kInterrupted, // EINTR: signal
};

// Blocks until *addr != expected or a wake arrives. A direct FUTEX_WAIT.
FutexWaitResult FutexWait(std::atomic<std::uint32_t>* addr, std::uint32_t expected);

// Timed FUTEX_WAIT; timeout_ns is relative. timeout_ns == 0 means no timeout.
FutexWaitResult FutexWaitTimeout(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                                 std::uint64_t timeout_ns);

// Wakes up to `count` waiters sleeping on addr. Returns the number woken.
int FutexWake(std::atomic<std::uint32_t>* addr, int count);

// Per-lock futex statistics. Counters are relaxed: they are diagnostics, not
// synchronization, and must not perturb the hot path.
struct FutexStats {
  std::atomic<std::uint64_t> sleeps{0};         // FUTEX_WAIT calls that blocked or missed
  std::atomic<std::uint64_t> sleep_misses{0};   // EAGAIN: value changed before sleeping
  std::atomic<std::uint64_t> wake_calls{0};     // FUTEX_WAKE invocations
  std::atomic<std::uint64_t> threads_woken{0};  // total threads actually woken
  std::atomic<std::uint64_t> timeouts{0};       // timed waits that expired
};

// Futex wrappers that account into a FutexStats block.
FutexWaitResult FutexWaitCounted(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                                 FutexStats* stats);
FutexWaitResult FutexWaitTimeoutCounted(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                                        std::uint64_t timeout_ns, FutexStats* stats);
int FutexWakeCounted(std::atomic<std::uint32_t>* addr, int count, FutexStats* stats);

}  // namespace lockin

#endif  // SRC_FUTEX_FUTEX_HPP_
