// MCS queue lock (Mellor-Crummey & Scott, 1991).
//
// Waiters form an explicit queue; each spins on a flag in its own cache
// line, so a release touches exactly one remote line. This is why MCS
// "delivers the best throughput and TPP" up to full subscription in the
// paper's Figure 11 -- and why, being FIFO-fair, it collapses beyond 40
// threads when the next-in-queue thread may be descheduled.
//
// lock()/unlock() draw queue nodes from a small thread-local stack, which
// supports nested acquisition of distinct MCS locks up to kMaxNesting deep.
#ifndef SRC_LOCKS_MCS_HPP_
#define SRC_LOCKS_MCS_HPP_

#include <atomic>
#include <cstdint>

#include "src/platform/cacheline.hpp"
#include "src/platform/spin_hint.hpp"
#include "src/platform/thread_annotations.hpp"
#include "src/locks/spinlocks.hpp"

namespace lockin {

struct alignas(kCacheLineSize) McsNode {
  std::atomic<McsNode*> next{nullptr};
  std::atomic<std::uint32_t> locked{0};
};

class LL_CAPABILITY("mutex") McsLock {
 public:
  McsLock() = default;
  explicit McsLock(SpinConfig config) : config_(config) {}

  void lock() LL_ACQUIRE();
  void unlock() LL_RELEASE();

 private:
  static constexpr int kMaxNesting = 16;

  // The classical explicit-node protocol. The node must stay alive and
  // unreused until the matching unlock returns.
  void lock(McsNode* node) LL_ACQUIRE();
  void unlock(McsNode* node) LL_RELEASE();

  McsNode* PushTlsNode();
  McsNode* PopTlsNode();

  SpinConfig config_{};
  alignas(kCacheLineSize) std::atomic<McsNode*> tail_{nullptr};
};

}  // namespace lockin

#endif  // SRC_LOCKS_MCS_HPP_
