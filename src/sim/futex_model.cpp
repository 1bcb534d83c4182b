#include "src/sim/futex_model.hpp"

#include <algorithm>
#include <cmath>

namespace lockin {

SimFutex::SimFutex(SimMachine* machine, std::uint64_t seed)
    : machine_(machine), jitter_rng_(seed) {}

std::uint64_t SimFutex::BucketDelay(std::uint64_t hold_cycles) {
  const SimTime now = machine_->engine().now();
  const SimTime start = std::max(now, bucket_busy_until_);
  bucket_busy_until_ = start + hold_cycles;
  return start - now;
}

std::uint64_t SimFutex::TurnaroundTail(SimTime slept_at) {
  const SimParams& p = machine_->params();
  const SimTime now = machine_->engine().now();
  const std::uint64_t slept_for = now > slept_at ? now - slept_at : 0;
  // Base tail: turnaround minus the wake call that the waker already paid.
  std::uint64_t tail = p.futex_turnaround_cycles - p.futex_wake_call_cycles;
  // +-10% scheduling noise (see jitter_rng_ comment in the header).
  tail = static_cast<std::uint64_t>(static_cast<double>(tail) *
                                    (0.9 + 0.2 * jitter_rng_.NextDouble()));
  if (slept_for > p.deep_idle_threshold_cycles) {
    // Deeper idle states take longer to exit; scale the penalty with the
    // log of the overshoot, saturating at the full penalty (Figure 6).
    const double overshoot = static_cast<double>(slept_for) /
                             static_cast<double>(p.deep_idle_threshold_cycles);
    const double frac = std::min(1.0, std::log10(overshoot) / 1.2);
    tail += static_cast<std::uint64_t>(frac * static_cast<double>(p.deep_idle_penalty_cycles));
    stats_.deep_sleeps++;
  }
  return tail;
}

void SimFutex::Sleep(int tid, std::uint64_t timeout_cycles, WakeCallback on_wake) {
  stats_.sleep_calls++;
  const SimParams& p = machine_->params();
  const std::uint64_t kernel_cycles =
      BucketDelay(p.futex_sleep_bucket_cycles) + p.futex_sleep_cycles;
  ++entering_;
  machine_->RunFor(tid, kernel_cycles, ActivityState::kKernel,
                   [this, tid, timeout_cycles, on_wake = std::move(on_wake)]() mutable {
                     --entering_;
                     if (pending_misses_ > 0) {
                       // A wake raced with the sleep call: EAGAIN, no block.
                       --pending_misses_;
                       stats_.sleep_misses++;
                       on_wake(WakeReason::kSleepMiss);
                       return;
                     }
                     Sleeper sleeper;
                     sleeper.tid = tid;
                     sleeper.slept_at = machine_->engine().now();
                     sleeper.timeout_event = 0;
                     sleeper.on_wake = std::move(on_wake);
                     if (timeout_cycles != 0) {
                       sleeper.timeout_event = machine_->engine().Schedule(
                           timeout_cycles, [this, tid] {
                             for (auto it = sleepers_.begin(); it != sleepers_.end(); ++it) {
                               if (it->tid == tid) {
                                 Sleeper timed = std::move(*it);
                                 sleepers_.erase(it);
                                 stats_.timeouts++;
                                 // Timeout expiry dequeues the waiter under
                                 // the same kernel bucket lock: short
                                 // timeouts clog the kernel (Figure 10).
                                 const std::uint64_t bucket_wait = BucketDelay(
                                     machine_->params().futex_wake_bucket_cycles);
                                 DeliverWake(std::move(timed), WakeReason::kTimedOut,
                                             bucket_wait);
                                 return;
                               }
                             }
                           });
                     }
                     sleepers_.push_back(std::move(sleeper));
                     machine_->Block(tid, ActivityState::kSleeping);
                   });
}

void SimFutex::DeliverWake(Sleeper sleeper, WakeReason reason, std::uint64_t extra_delay) {
  if (sleeper.timeout_event != 0 && reason != WakeReason::kTimedOut) {
    machine_->engine().Cancel(sleeper.timeout_event);
  }
  const std::uint64_t tail = TurnaroundTail(sleeper.slept_at) + extra_delay;
  const int tid = sleeper.tid;
  machine_->NotifyWhenRunning(tid, [on_wake = std::move(sleeper.on_wake), reason]() mutable {
    on_wake(reason);
  });
  machine_->Unblock(tid, tail);
}

void SimFutex::Wake(int tid, int count, SimCallback on_done) {
  stats_.wake_calls++;
  const SimParams& p = machine_->params();
  // A wake means the futex word changed in user space: every sleeper still
  // *entering* the kernel will fail its value check (EAGAIN) and return --
  // the "sleep miss" of section 4.4, decided at wake invocation time.
  if (entering_ > pending_misses_) {
    pending_misses_ = entering_;
  }
  const std::uint64_t kernel_cycles =
      BucketDelay(p.futex_wake_bucket_cycles) + p.futex_wake_call_cycles;
  // One wake call in flight per tid by construction (the waker is running
  // it), so the continuation parks in the tid's slot.
  wake_done_.Put(tid, std::move(on_done));
  machine_->RunFor(tid, kernel_cycles, ActivityState::kKernel, [this, tid, count] {
    int remaining = count;
    while (remaining > 0 && !sleepers_.empty()) {
      Sleeper sleeper = std::move(sleepers_.front());
      sleepers_.pop_front();
      stats_.threads_woken++;
      DeliverWake(std::move(sleeper), WakeReason::kSignalled);
      --remaining;
    }
    SimCallback done = wake_done_.Take(tid);
    done();
  });
}

}  // namespace lockin
