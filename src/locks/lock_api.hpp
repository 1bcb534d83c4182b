// Public lock API.
//
// Two layers:
//   * a compile-time `Lockable` concept following the standard library's
//     BasicLockable protocol (lock/unlock, lowercase by design so
//     std::lock_guard and our CondVar work with every lock in the library);
//   * a type-erased `LockHandle` used by the benchmark harness and the
//     mini-systems to switch lock algorithms at run time, which is exactly
//     the paper's experiment ("we do not modify anything else other than the
//     pthread locks", section 6). `LockAdapter<L>` is its only
//     implementation and the only lock decorator: it also applies the
//     handle's trace hook.
#ifndef SRC_LOCKS_LOCK_API_HPP_
#define SRC_LOCKS_LOCK_API_HPP_

#include <cstdint>
#include <string>
#include <utility>

#include "src/analysis/lockdep.hpp"
#include "src/obs/trace.hpp"
#include "src/platform/thread_annotations.hpp"

namespace lockin {

template <typename L>
concept Lockable = requires(L lock) {
  lock.lock();
  lock.unlock();
};

// Runtime-polymorphic lock. LockAdapter<L> below is the one implementation;
// the virtual-call overhead is ~1-2 ns and identical across algorithms, so
// relative comparisons are unaffected.
//
// The handle itself is the capability callers reason about: systems write
// `Entry entry_ LL_GUARDED_BY(*lock_)` against the LockHandle they own, and
// -Wthread-safety enforces it across every concrete algorithm at once.
class LL_CAPABILITY("mutex") LockHandle {
 public:
  virtual ~LockHandle() = default;

  virtual void lock() LL_ACQUIRE() = 0;
  virtual void unlock() LL_RELEASE() = 0;

  // Algorithm name as used in the paper's figures ("MUTEX", "TICKET", ...).
  virtual std::string name() const = 0;

  // LockScope tracing hook, chosen once after construction and before the
  // lock is shared (ScenarioConfig::MakeLockFactory): acquisitions emit
  // kAcquireBegin, kAcquired and kReleased under a fresh trace site, which
  // lockdep reports under name(), and the lock's own slow path adds
  // kContended (TraceContended; PTHREAD's slow path is inside glibc and
  // adds none). An untraced handle pays one member test per lock() and per
  // unlock().
  void EnableTrace() {
    trace_site_ = NextTraceSiteId();
    LockdepRegisterSiteName(trace_site_, name());
  }
  std::uint32_t trace_site() const { return trace_site_; }  // 0 when untraced

 protected:
  std::uint32_t trace_site_ = 0;
};

// Adapts any Lockable into a LockHandle and applies the handle's trace hook.
//
// The overrides advertise acquiring *this* (the capability callers see)
// while their bodies acquire the wrapped impl_; the analysis cannot equate
// the two, so the bodies opt out and the declaration annotations carry the
// contract to call sites.
template <Lockable L>
class LockAdapter final : public LockHandle {
 public:
  template <typename... Args>
  explicit LockAdapter(std::string name, Args&&... args)
      : name_(std::move(name)), impl_(std::forward<Args>(args)...) {}

  void lock() LL_ACQUIRE() LL_NO_THREAD_SAFETY_ANALYSIS override {
    if (trace_site_ != 0) [[unlikely]] {
      TracedLock();
      return;
    }
    impl_.lock();
  }
  // kReleased is stamped before the release, so a hold span ends before
  // the next holder's begins; the wake-up a release may cost has its own
  // kFutexWake event.
  void unlock() LL_RELEASE() LL_NO_THREAD_SAFETY_ANALYSIS override {
    if (trace_site_ != 0) [[unlikely]] {
      TraceEmit(TraceEventKind::kReleased, trace_site_);
    }
    impl_.unlock();
  }
  std::string name() const override { return name_; }

  L& impl() { return impl_; }
  const L& impl() const { return impl_; }

 private:
  // lock() with the trace hook enabled: the same impl_.lock() call, with
  // the site published for its slow path. Out of line, so the untraced
  // lock() stays one test in front of impl_.lock(), with no register spills.
  [[gnu::noinline]] void TracedLock() LL_NO_THREAD_SAFETY_ANALYSIS {
    TraceEmit(TraceEventKind::kAcquireBegin, trace_site_);
    tls_acquire_site = trace_site_;
    impl_.lock();
    tls_acquire_site = 0;
    TraceEmit(TraceEventKind::kAcquired, trace_site_);
  }

  std::string name_;
  L impl_;
};

// RAII guard over the type-erased handle.
class LL_SCOPED_CAPABILITY HandleGuard {
 public:
  explicit HandleGuard(LockHandle& handle) LL_ACQUIRE(handle) : handle_(handle) {
    handle_.lock();
  }
  ~HandleGuard() LL_RELEASE() { handle_.unlock(); }

  HandleGuard(const HandleGuard&) = delete;
  HandleGuard& operator=(const HandleGuard&) = delete;

 private:
  LockHandle& handle_;
};

// RAII guard over any concrete Lockable (the static-dispatch counterpart of
// HandleGuard). Unlike std::lock_guard this is a scoped capability, so
// LL_GUARDED_BY data behind a concrete lock stays machine-checked.
template <Lockable L>
class LL_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(L& lock) LL_ACQUIRE(lock) : lock_(lock) { lock_.lock(); }
  ~LockGuard() LL_RELEASE() { lock_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  L& lock_;
};

}  // namespace lockin

#endif  // SRC_LOCKS_LOCK_API_HPP_
