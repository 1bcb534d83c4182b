#include "src/locks/backoff.hpp"

#include <thread>

#include "src/platform/cycles.hpp"

namespace lockin {

void BackoffTasLock::lock() {
  // Per-thread RNG so concurrent waiters decorrelate.
  thread_local Xoshiro256 rng(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1);
  std::uint64_t window = kMinBackoffCycles;
  std::uint32_t iteration = 0;
  while (locked_.exchange(1, std::memory_order_acquire) != 0) {
    const std::uint64_t wait = kMinBackoffCycles + rng.NextBelow(window);
    const std::uint64_t start = ReadCycles();
    while (ReadCycles() - start < wait) {
      if (spin_.yield_after != 0 && ++iteration >= spin_.yield_after) {
        iteration = 0;
        SpinPause(PauseKind::kYield);
      } else {
        SpinPause(PauseKind::kMfence);
      }
    }
    window = std::min(window * 2, kMaxBackoffCycles);
  }
}

bool BackoffTasLock::try_lock() {
  return locked_.exchange(1, std::memory_order_acquire) == 0;
}

void BackoffTasLock::unlock() { locked_.store(0, std::memory_order_release); }

CohortLock::CohortLock(SpinConfig spin) {
  locals_.reserve(kSockets);
  for (int i = 0; i < kSockets; ++i) {
    locals_.push_back(std::make_unique<Local>(spin));
  }
}

void CohortLock::lock(int socket) {
  Local& local = *locals_[static_cast<std::size_t>(socket) % kSockets];
  local.waiters.fetch_add(1, std::memory_order_relaxed);
  local.lock.lock();
  local.waiters.fetch_sub(1, std::memory_order_relaxed);
  // Inside the cohort: if a previous holder left the global lock to us,
  // we own the critical section already.
  if (local.global_held) {
    return;
  }
  global_.lock();
  local.global_held = true;
  local.handovers = 0;
}

void CohortLock::unlock(int socket) {
  Local& local = *locals_[static_cast<std::size_t>(socket) % kSockets];
  // Hand over within the socket while the budget lasts *and* a local
  // waiter exists to take it; the next local acquirer inherits the global
  // lock (global_held stays true).
  if (local.handovers < kMaxCohortHandovers &&
      local.waiters.load(std::memory_order_relaxed) > 0) {
    local.handovers++;
    local.lock.unlock();
    return;
  }
  local.global_held = false;
  global_.unlock();
  local.lock.unlock();
}

int CohortLock::SocketOfThisThread() {
  thread_local const std::size_t tid_hash =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<int>(tid_hash % kSockets);
}

void CohortLock::lock() { lock(SocketOfThisThread()); }

bool CohortLock::try_lock() {
  const int socket = SocketOfThisThread();
  Local& local = *locals_[static_cast<std::size_t>(socket)];
  if (!local.lock.try_lock()) {
    return false;
  }
  // A try_lock winner behaves like a zero-waiters acquire.
  if (local.global_held) {
    return true;
  }
  if (global_.try_lock()) {
    local.global_held = true;
    local.handovers = 0;
    return true;
  }
  local.lock.unlock();
  return false;
}

void CohortLock::unlock() { unlock(SocketOfThisThread()); }

}  // namespace lockin
