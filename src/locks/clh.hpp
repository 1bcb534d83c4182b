// CLH queue lock (Craig; Landin & Hagersten, 1993).
//
// Like MCS, waiters queue and spin locally, but each waiter spins on its
// *predecessor's* node and inherits that node for its next acquisition
// (node recycling). The paper evaluates CLH alongside MCS in section 5
// ("CLH ... differ[s] in [its] busy-waiting implementation").
//
// A node carries no lock identity, so any free node serves any lock. Nodes
// are recycled, never freed: every handover moves a node to another thread
// (unlock() passes the holder's node to its successor and keeps its
// predecessor's), so no thread or lock owns a node for its lifetime, and
// the free lists (clh.cpp) keep lock() allocation-free once warm.
#ifndef SRC_LOCKS_CLH_HPP_
#define SRC_LOCKS_CLH_HPP_

#include <atomic>
#include <cstdint>

#include "src/platform/cacheline.hpp"
#include "src/platform/thread_annotations.hpp"
#include "src/locks/spinlocks.hpp"

namespace lockin {

struct alignas(kCacheLineSize) ClhNode {
  std::atomic<std::uint32_t> locked{0};
  ClhNode* next_free = nullptr;  // free-list link while no queue holds the node
};

class LL_CAPABILITY("mutex") ClhLock {
 public:
  ClhLock();
  explicit ClhLock(SpinConfig config);
  ~ClhLock();

  ClhLock(const ClhLock&) = delete;
  ClhLock& operator=(const ClhLock&) = delete;

  void lock() LL_ACQUIRE();
  void unlock() LL_RELEASE();

 private:
  SpinConfig config_{};
  alignas(kCacheLineSize) std::atomic<ClhNode*> tail_;
  // The holder's queue node (its successor spins on it) and its
  // predecessor's (the holder's to recycle). Written once the lock is
  // acquired, read by unlock(); own line, so enqueuers on tail_ do not
  // contend with the holder.
  alignas(kCacheLineSize) ClhNode* holder_node_ = nullptr;
  ClhNode* holder_pred_ = nullptr;
};

}  // namespace lockin

#endif  // SRC_LOCKS_CLH_HPP_
