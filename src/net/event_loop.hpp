// NetServe core: a single-threaded epoll event loop.
//
// One EventLoop per worker thread (the memcached/redis shape): every fd
// registered with a loop is serviced only by that loop's thread, so
// per-connection state needs no locking -- cross-thread work enters
// through Post(), which enqueues a task and wakes the loop via an eventfd.
// epoll runs level-triggered: a handler that leaves bytes unread or a
// write buffer unflushed is simply called again, which is what lets a
// backpressured connection stop reading (drop EPOLLIN) without any
// edge-triggered starvation bookkeeping.
#ifndef SRC_NET_EVENT_LOOP_HPP_
#define SRC_NET_EVENT_LOOP_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace lockin {

class EventLoop {
 public:
  // Called with the ready epoll event mask (EPOLLIN/EPOLLOUT/EPOLLHUP/...).
  using IoHandler = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // fd registration. Loop-thread only (or before Run starts). Remove does
  // not close the fd; handlers for in-flight events of a removed fd are
  // skipped safely.
  void Add(int fd, std::uint32_t events, IoHandler handler);
  void Update(int fd, std::uint32_t events);
  void Remove(int fd);

  // Runs until Stop(). The calling thread becomes the loop thread.
  void Run();

  // Thread-safe: requests the loop to exit after the current iteration.
  void Stop();

  // Thread-safe: runs `task` on the loop thread (immediately-queued; the
  // eventfd wakeup makes a blocked epoll_wait return). Tasks posted from
  // the loop thread itself run at the end of the current iteration.
  void Post(std::function<void()> task);

 private:
  void Wake();
  void DrainWake();
  void RunPostedTasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};

  // shared_ptr per handler: the dispatch loop copies the pointer before
  // invoking, so a handler that removes its own (or a sibling's) fd during
  // the same iteration never frees a std::function mid-call.
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;

  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;
};

}  // namespace lockin

#endif  // SRC_NET_EVENT_LOOP_HPP_
