#include "src/locks/mutexee.hpp"

#include "src/obs/trace.hpp"
#include "src/platform/cycles.hpp"
#include "src/platform/spin_hint.hpp"

namespace lockin {

bool MutexeeLock::SpinAcquire(std::uint64_t budget) {
  const std::uint64_t start = ReadCycles();
  for (;;) {
    std::uint32_t current = state_.load(std::memory_order_relaxed);
    if (current == 0) {
      if (state_.compare_exchange_weak(current, 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return true;
      }
      continue;
    }
    if (ReadCycles() - start >= budget) {
      return false;
    }
    SpinPause(PauseKind::kMfence);
  }
}

void MutexeeLock::LockSlow() {
  TraceContended();
  const Mode mode = mode_.load(std::memory_order_relaxed);
  const std::uint64_t spin_budget = mode == Mode::kSpin
                                        ? spin_lock_budget_.load(std::memory_order_relaxed)
                                        : config_.mutex_mode_lock_cycles;

  if (SpinAcquire(spin_budget)) {
    CountAcquire();
    return;
  }

  // Sleep phase. Advertise sleepers via state 2 and a sleeper count; the
  // count lets unlock skip the grace wait and the wake when nobody sleeps.
  //
  // Two words, so the order matters: the fetch_add and the 1->2 CAS here
  // pair with unlock()'s state_ exchange and sleepers_ load, all four
  // seq_cst. An unlocker that reads state 2 must see that sleeper's
  // increment; relaxed, this is the store-buffering shape (each side writes
  // one word, then reads the other) in which the unlocker may read 0
  // sleepers and skip the wake. On x86 the code is the same either way.
  bool woke_by_timeout = false;
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  for (;;) {
    std::uint32_t current = state_.load(std::memory_order_relaxed);
    if (current == 0) {
      if (state_.compare_exchange_weak(current, 2, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        break;  // acquired
      }
      continue;
    }
    if (current == 1) {
      if (!state_.compare_exchange_weak(current, 2, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        continue;
      }
      current = 2;
    }
    const FutexWaitResult result =
        FutexWaitTimeoutCounted(&state_, 2, config_.sleep_timeout_ns, &futex_stats_);
    if (result == FutexWaitResult::kTimedOut) {
      woke_by_timeout = true;
      break;
    }
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  if (woke_by_timeout) {
    // Timeout protocol: spin until acquired, never sleep again (bounds the
    // tail latency at ~the timeout; Figure 10).
    for (;;) {
      std::uint32_t current = state_.load(std::memory_order_relaxed);
      if (current == 0 && state_.compare_exchange_weak(current, 2, std::memory_order_acquire,
                                                       std::memory_order_relaxed)) {
        break;
      }
      SpinPause(PauseKind::kMfence);
    }
    timeout_handovers_.store(timeout_handovers_.load(std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
  } else {
    futex_handovers_.store(futex_handovers_.load(std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
  }
  CountAcquire();
}

void MutexeeLock::UnlockSlow(std::uint32_t prior) {
  if (prior != 2 && sleepers_.load(std::memory_order_relaxed) == 0) {
    return;
  }

  if (config_.enable_unlock_grace) {
    // Grace window: if a spinning/arriving thread takes the lock in user
    // space within ~one coherence round-trip, the sleepers stay asleep and
    // we skip the (expensive, >= 7000-cycle turnaround) futex wake.
    const Mode mode = mode_.load(std::memory_order_relaxed);
    const std::uint64_t grace = mode == Mode::kSpin
                                    ? spin_grace_budget_.load(std::memory_order_relaxed)
                                    : config_.mutex_mode_grace_cycles;
    const std::uint64_t start = ReadCycles();
    while (ReadCycles() - start < grace) {
      if (state_.load(std::memory_order_relaxed) != 0) {
        wake_skips_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      SpinPause(PauseKind::kMfence);
    }
    if (state_.load(std::memory_order_relaxed) != 0) {
      wake_skips_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  FutexWakeCounted(&state_, 1, &futex_stats_);
}

void MutexeeLock::Adapt() {
  // The closed total grows before the window empties, and GetStats() reads
  // the window first: where stores and loads keep their order (x86), a
  // read racing this close counts the window twice rather than losing it.
  const std::uint64_t futex = futex_handovers_.load(std::memory_order_relaxed);
  const std::uint64_t window_futex =
      futex - closed_futex_handovers_.load(std::memory_order_relaxed);
  closed_acquires_.store(closed_acquires_.load(std::memory_order_relaxed) + kAdaptPeriod,
                         std::memory_order_relaxed);
  closed_futex_handovers_.store(futex, std::memory_order_relaxed);
  window_acquires_.store(0, std::memory_order_relaxed);

  const double ratio = static_cast<double>(window_futex) / static_cast<double>(kAdaptPeriod);
  const Mode desired = ratio > config_.futex_ratio_threshold ? Mode::kMutex : Mode::kSpin;
  if (desired != mode_.load(std::memory_order_relaxed)) {
    mode_.store(desired, std::memory_order_relaxed);
    mode_switches_.store(mode_switches_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }
}

MutexeeLock::Stats MutexeeLock::GetStats() const {
  Stats s;
  s.acquires = window_acquires_.load(std::memory_order_relaxed);
  s.acquires += closed_acquires_.load(std::memory_order_relaxed);
  s.futex_handovers = futex_handovers_.load(std::memory_order_relaxed);
  s.timeout_handovers = timeout_handovers_.load(std::memory_order_relaxed);
  // Every acquire that did not follow a sleep was a spin handover. Read
  // while holders run, the handover counts may be ahead of the window
  // count; clamp rather than wrap.
  const std::uint64_t slept = s.futex_handovers + s.timeout_handovers;
  s.spin_handovers = s.acquires > slept ? s.acquires - slept : 0;
  s.wake_skips = wake_skips_.load(std::memory_order_relaxed);
  s.mode_switches = mode_switches_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lockin
