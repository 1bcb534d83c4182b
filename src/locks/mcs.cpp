#include "src/locks/mcs.hpp"

#include "src/obs/trace.hpp"

namespace lockin {
namespace {

// Per-thread node stack shared by all McsLock instances: entry i is in use
// by the i-th deepest MCS acquisition currently held by this thread.
struct TlsNodePool {
  McsNode nodes[16];
  int depth = 0;
};

thread_local TlsNodePool tls_pool;

}  // namespace

void McsLock::lock(McsNode* node) {
  node->next.store(nullptr, std::memory_order_relaxed);
  node->locked.store(1, std::memory_order_relaxed);
  McsNode* prev = tail_.exchange(node, std::memory_order_acq_rel);
  if (prev == nullptr) {
    return;  // lock was free
  }
  TraceContended();
  prev->next.store(node, std::memory_order_release);
  std::uint32_t iteration = 0;
  while (node->locked.load(std::memory_order_acquire) != 0) {
    SpinWaitStep(config_, iteration++);
  }
}

void McsLock::unlock(McsNode* node) {
  McsNode* successor = node->next.load(std::memory_order_acquire);
  if (successor == nullptr) {
    McsNode* expected = node;
    if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return;  // no waiter
    }
    // A waiter swapped itself into tail_ but has not linked yet; wait for
    // the link (bounded: the enqueuer is between two instructions).
    std::uint32_t iteration = 0;
    while ((successor = node->next.load(std::memory_order_acquire)) == nullptr) {
      SpinWaitStep(config_, iteration++);
    }
  }
  successor->locked.store(0, std::memory_order_release);
}

McsNode* McsLock::PushTlsNode() {
  TlsNodePool& pool = tls_pool;
  // Depth overflow would mean >16 nested MCS locks; treat as programmer
  // error and reuse the last slot (still safe for distinct locks released
  // LIFO, which is what guards give us).
  const int index = pool.depth < kMaxNesting ? pool.depth : kMaxNesting - 1;
  ++pool.depth;
  return &pool.nodes[index];
}

McsNode* McsLock::PopTlsNode() {
  TlsNodePool& pool = tls_pool;
  --pool.depth;
  const int index = pool.depth < kMaxNesting ? pool.depth : kMaxNesting - 1;
  return &pool.nodes[index];
}

void McsLock::lock() { lock(PushTlsNode()); }

void McsLock::unlock() { unlock(PopTlsNode()); }

}  // namespace lockin
