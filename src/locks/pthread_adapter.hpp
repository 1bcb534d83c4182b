// Adapter over pthread_mutex_t.
//
// The paper's systems experiments replace pthread mutexes in six systems;
// this adapter is the "stock MUTEX" reference point so benchmarks can
// compare the re-implemented FutexLock against the real glibc lock.
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
  bool try_lock() LL_TRY_ACQUIRE(true) { return pthread_mutex_trylock(&mutex_) == 0; }
  void unlock() LL_RELEASE() { pthread_mutex_unlock(&mutex_); }

 private:
  pthread_mutex_t mutex_;
};

}  // namespace lockin

#endif  // SRC_LOCKS_PTHREAD_ADAPTER_HPP_
