// Adapter over pthread_mutex_t.
//
// The paper's systems experiments replace pthread mutexes in six systems;
// this adapter is the "stock MUTEX" reference point so benchmarks can
// compare the re-implemented FutexLock against the real glibc lock. Its
// slow path is inside glibc, so a traced PTHREAD acquire shows its wait
// and hold spans but no kContended instant and no futex events.
#ifndef SRC_LOCKS_PTHREAD_ADAPTER_HPP_
#define SRC_LOCKS_PTHREAD_ADAPTER_HPP_

#include <pthread.h>

#include "src/platform/thread_annotations.hpp"

namespace lockin {

class LL_CAPABILITY("mutex") PthreadMutex {
 public:
  PthreadMutex() { pthread_mutex_init(&mutex_, nullptr); }
  ~PthreadMutex() { pthread_mutex_destroy(&mutex_); }

  PthreadMutex(const PthreadMutex&) = delete;
  PthreadMutex& operator=(const PthreadMutex&) = delete;

  void lock() LL_ACQUIRE() { pthread_mutex_lock(&mutex_); }
  void unlock() LL_RELEASE() { pthread_mutex_unlock(&mutex_); }

 private:
  pthread_mutex_t mutex_;
};

}  // namespace lockin

#endif  // SRC_LOCKS_PTHREAD_ADAPTER_HPP_
