#include "src/locks/mutexee.hpp"

#include "src/platform/cycles.hpp"

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
    SpinPause(config_.pause);
  }
}

void MutexeeLock::lock() {
  // Uncontested fast path: one CAS, no cycle reads.
  std::uint32_t free_state = 0;
  if (state_.compare_exchange_weak(free_state, 1, std::memory_order_acquire,
                                   std::memory_order_relaxed)) {
    acquires_.fetch_add(1, std::memory_order_relaxed);
    spin_handovers_.fetch_add(1, std::memory_order_relaxed);
    window_acquires_.fetch_add(1, std::memory_order_relaxed);
    MaybeAdapt();
    return;
  }

  const Mode mode = mode_.load(std::memory_order_relaxed);
  const std::uint64_t spin_budget = mode == Mode::kSpin
                                        ? spin_lock_budget_.load(std::memory_order_relaxed)
                                        : config_.mutex_mode_lock_cycles;

  if (SpinAcquire(spin_budget)) {
    acquires_.fetch_add(1, std::memory_order_relaxed);
    spin_handovers_.fetch_add(1, std::memory_order_relaxed);
    window_acquires_.fetch_add(1, std::memory_order_relaxed);
    MaybeAdapt();
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
  if (woke_by_timeout) {
    // Timeout protocol: spin until acquired, never sleep again (bounds the
    // tail latency at ~the timeout; Figure 10).
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    for (;;) {
      std::uint32_t current = state_.load(std::memory_order_relaxed);
      if (current == 0 && state_.compare_exchange_weak(current, 2, std::memory_order_acquire,
                                                       std::memory_order_relaxed)) {
        break;
      }
      SpinPause(config_.pause);
    }
    timeout_handovers_.fetch_add(1, std::memory_order_relaxed);
  } else {
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    futex_handovers_.fetch_add(1, std::memory_order_relaxed);
    window_futex_.fetch_add(1, std::memory_order_relaxed);
  }
  acquires_.fetch_add(1, std::memory_order_relaxed);
  window_acquires_.fetch_add(1, std::memory_order_relaxed);
  MaybeAdapt();
}

bool MutexeeLock::try_lock() {
  std::uint32_t expected = 0;
  if (state_.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
    acquires_.fetch_add(1, std::memory_order_relaxed);
    spin_handovers_.fetch_add(1, std::memory_order_relaxed);
    window_acquires_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void MutexeeLock::unlock() {
  // seq_cst pair: see the sleep phase in lock().
  const std::uint32_t prior = state_.exchange(0, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) == 0) {
    return;  // nobody to wake; fully user-space handover
  }
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
      SpinPause(config_.pause);
    }
    if (state_.load(std::memory_order_relaxed) != 0) {
      wake_skips_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  FutexWakeCounted(&state_, 1, &futex_stats_);
}

void MutexeeLock::MaybeAdapt() {
  const std::uint64_t window = window_acquires_.load(std::memory_order_relaxed);
  if (window < config_.adapt_period) {
    return;
  }
  // One thread wins the reset race; losers skip this round.
  std::uint64_t expected = window;
  if (!window_acquires_.compare_exchange_strong(expected, 0, std::memory_order_relaxed,
                                                std::memory_order_relaxed)) {
    return;
  }
  const std::uint64_t futex_count = window_futex_.exchange(0, std::memory_order_relaxed);
  const double ratio = static_cast<double>(futex_count) / static_cast<double>(window);
  const Mode desired = ratio > config_.futex_ratio_threshold ? Mode::kMutex : Mode::kSpin;
  const Mode current = mode_.load(std::memory_order_relaxed);
  if (desired != current) {
    mode_.store(desired, std::memory_order_relaxed);
    mode_switches_.fetch_add(1, std::memory_order_relaxed);
  }
}

MutexeeLock::Stats MutexeeLock::GetStats() const {
  Stats s;
  s.acquires = acquires_.load(std::memory_order_relaxed);
  s.spin_handovers = spin_handovers_.load(std::memory_order_relaxed);
  s.futex_handovers = futex_handovers_.load(std::memory_order_relaxed);
  s.timeout_handovers = timeout_handovers_.load(std::memory_order_relaxed);
  s.wake_skips = wake_skips_.load(std::memory_order_relaxed);
  s.mode_switches = mode_switches_.load(std::memory_order_relaxed);
  return s;
}

void MutexeeLock::ResetStats() {
  acquires_.store(0, std::memory_order_relaxed);
  spin_handovers_.store(0, std::memory_order_relaxed);
  futex_handovers_.store(0, std::memory_order_relaxed);
  timeout_handovers_.store(0, std::memory_order_relaxed);
  wake_skips_.store(0, std::memory_order_relaxed);
  mode_switches_.store(0, std::memory_order_relaxed);
  window_acquires_.store(0, std::memory_order_relaxed);
  window_futex_.store(0, std::memory_order_relaxed);
  futex_stats_.Reset();
}

}  // namespace lockin
