#include "src/locks/clh.hpp"

#include <mutex>

#include "src/obs/trace.hpp"

namespace lockin {
namespace {

// Free nodes. Each thread keeps its own list: lock() takes a node and the
// matching unlock() gives one back (the predecessor's), so in steady state
// no list is shared. A thread that exits, and a lock that dies, hand their
// nodes to the shared list, where the next thread that runs short finds
// them. The shared list is never destroyed, so its nodes stay reachable.
struct SharedFreeList {
  std::mutex mu;
  ClhNode* head = nullptr;
};

SharedFreeList& Shared() {
  static SharedFreeList* const shared = new SharedFreeList;
  return *shared;
}

void GiveShared(ClhNode* node) {
  SharedFreeList& shared = Shared();
  std::lock_guard<std::mutex> guard(shared.mu);
  node->next_free = shared.head;
  shared.head = node;
}

ClhNode* TakeShared() {
  SharedFreeList& shared = Shared();
  std::lock_guard<std::mutex> guard(shared.mu);
  ClhNode* node = shared.head;
  if (node == nullptr) {
    return new ClhNode();
  }
  shared.head = node->next_free;
  return node;
}

struct LocalFreeList {
  ClhNode* head = nullptr;
  ~LocalFreeList() {
    while (head != nullptr) {
      ClhNode* next = head->next_free;
      GiveShared(head);
      head = next;
    }
  }
};

thread_local LocalFreeList tls_free;

ClhNode* TakeNode() {
  ClhNode* node = tls_free.head;
  if (node == nullptr) {
    return TakeShared();
  }
  tls_free.head = node->next_free;
  return node;
}

void GiveNode(ClhNode* node) {
  node->next_free = tls_free.head;
  tls_free.head = node;
}

}  // namespace

ClhLock::ClhLock() : ClhLock(SpinConfig{}) {}

ClhLock::ClhLock(SpinConfig config) : config_(config) {
  ClhNode* initial = TakeShared();
  initial->locked.store(0, std::memory_order_relaxed);
  tail_.store(initial, std::memory_order_relaxed);
}

ClhLock::~ClhLock() {
  // The tail is the one node the queue still holds once the lock is free.
  // Locks may die during static destruction, after this thread's list is
  // gone, so it goes to the shared list.
  GiveShared(tail_.load(std::memory_order_relaxed));
}

void ClhLock::lock() {
  ClhNode* node = TakeNode();
  node->locked.store(1, std::memory_order_relaxed);
  ClhNode* pred = tail_.exchange(node, std::memory_order_acq_rel);
  std::uint32_t iteration = 0;
  while (pred->locked.load(std::memory_order_acquire) != 0) {
    TraceContended();
    SpinWaitStep(config_, iteration++);
  }
  holder_node_ = node;
  holder_pred_ = pred;
}

void ClhLock::unlock() {
  // Read the holder fields before the release: the successor overwrites
  // them as soon as it owns the lock.
  ClhNode* node = holder_node_;
  // Recycle: the predecessor's node is ours now; ours passes to the
  // successor (who is spinning on it).
  GiveNode(holder_pred_);
  node->locked.store(0, std::memory_order_release);
}

}  // namespace lockin
