#include "src/futex/futex.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>

#include "src/obs/trace.hpp"
#include "src/platform/failpoint.hpp"

namespace lockin {
namespace {

long RawFutex(std::atomic<std::uint32_t>* addr, int op, std::uint32_t val,
              const timespec* timeout) {
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), op, val, timeout, nullptr, 0);
}

FutexWaitResult WaitResultFromErrno(long rc) {
  if (rc == 0) {
    return FutexWaitResult::kWoken;
  }
  switch (errno) {
    case EAGAIN:
      return FutexWaitResult::kValueStale;
    case ETIMEDOUT:
      return FutexWaitResult::kTimedOut;
    case EINTR:
      return FutexWaitResult::kInterrupted;
    default:
      return FutexWaitResult::kWoken;
  }
}

}  // namespace

// LockScope hooks live on the raw functions: every sleeping primitive in
// the library (FutexLock, Mutexee, CondVar, the Counted wrappers) funnels
// through these three, so instrumenting them covers the kernel
// round-trips everywhere. The emit is one thread-local load + branch next
// to a syscall, i.e. noise; with no sink installed it is the branch alone.
FutexWaitResult FutexWait(std::atomic<std::uint32_t>* addr, std::uint32_t expected) {
  // FailSafe: a fired futex/wait returns without sleeping -- a spurious
  // wake, which every caller's wait loop must already tolerate (the kernel
  // is allowed to do the same). Delay rules stall before the sleep.
  if (FailpointFired(FailpointId::kFutexWait)) {
    return FutexWaitResult::kInterrupted;
  }
  TraceEmit(TraceEventKind::kFutexSleepBegin, 0);
  const long rc = RawFutex(addr, FUTEX_WAIT_PRIVATE, expected, nullptr);
  const FutexWaitResult result = WaitResultFromErrno(rc);
  TraceEmit(TraceEventKind::kFutexSleepEnd, static_cast<std::uint32_t>(result));
  return result;
}

FutexWaitResult FutexWaitTimeout(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                                 std::uint64_t timeout_ns) {
  if (timeout_ns == 0) {
    return FutexWait(addr, expected);
  }
  if (FailpointFired(FailpointId::kFutexWait)) {
    return FutexWaitResult::kInterrupted;
  }
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000ULL);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000ULL);
  TraceEmit(TraceEventKind::kFutexSleepBegin, 0);
  const long rc = RawFutex(addr, FUTEX_WAIT_PRIVATE, expected, &ts);
  const FutexWaitResult result = WaitResultFromErrno(rc);
  TraceEmit(TraceEventKind::kFutexSleepEnd, static_cast<std::uint32_t>(result));
  return result;
}

int FutexWake(std::atomic<std::uint32_t>* addr, int count) {
  // FailSafe: a fired futex/wake wakes EVERY waiter (thundering herd)
  // instead of `count`. Skipping the wake would deadlock correct code, so
  // the chaos direction is over-waking; losing a wake is not a bug any
  // lock protocol is expected to survive.
  if (FailpointFired(FailpointId::kFutexWake)) {
    count = INT_MAX;
  }
  const long rc = RawFutex(addr, FUTEX_WAKE_PRIVATE, static_cast<std::uint32_t>(count), nullptr);
  const int woken = rc < 0 ? 0 : static_cast<int>(rc);
  TraceEmit(TraceEventKind::kFutexWake, static_cast<std::uint32_t>(woken));
  return woken;
}

FutexWaitResult FutexWaitCounted(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                                 FutexStats* stats) {
  stats->sleeps.fetch_add(1, std::memory_order_relaxed);
  const FutexWaitResult result = FutexWait(addr, expected);
  if (result == FutexWaitResult::kValueStale) {
    stats->sleep_misses.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

FutexWaitResult FutexWaitTimeoutCounted(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                                        std::uint64_t timeout_ns, FutexStats* stats) {
  stats->sleeps.fetch_add(1, std::memory_order_relaxed);
  const FutexWaitResult result = FutexWaitTimeout(addr, expected, timeout_ns);
  if (result == FutexWaitResult::kValueStale) {
    stats->sleep_misses.fetch_add(1, std::memory_order_relaxed);
  } else if (result == FutexWaitResult::kTimedOut) {
    stats->timeouts.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

int FutexWakeCounted(std::atomic<std::uint32_t>* addr, int count, FutexStats* stats) {
  stats->wake_calls.fetch_add(1, std::memory_order_relaxed);
  const int woken = FutexWake(addr, count);
  stats->threads_woken.fetch_add(static_cast<std::uint64_t>(woken), std::memory_order_relaxed);
  return woken;
}

}  // namespace lockin
