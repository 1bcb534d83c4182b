// Test helper: does a lock keep a second thread out while it is held? The
// probe uses lock() alone, the one acquire path every lock has.
#ifndef TESTS_LOCK_PROBE_HPP_
#define TESTS_LOCK_PROBE_HPP_

#include <atomic>
#include <chrono>
#include <thread>

namespace lockin {

// Takes `lock`, starts a thread that calls lock() on it, and reports
// whether that thread got in during the next 20 ms while `lock` was still
// held. Then releases `lock` and joins the thread, which must take the lock
// once it is free (a lock that never hands over hangs the test).
template <typename L>
bool EntersWhileHeld(L& lock) {
  lock.lock();
  std::atomic<bool> entered{false};
  std::thread other([&] {
    lock.lock();
    entered.store(true);
    lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const bool early = entered.load();
  lock.unlock();
  other.join();
  return early;
}

}  // namespace lockin

#endif  // TESTS_LOCK_PROBE_HPP_
