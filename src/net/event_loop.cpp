#include "src/net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace lockin {

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("epoll_create1 failed");
  }
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    close(epoll_fd_);
    throw std::runtime_error("eventfd failed");
  }
  Add(wake_fd_, EPOLLIN, [this](std::uint32_t) { DrainWake(); });
}

EventLoop::~EventLoop() {
  close(wake_fd_);
  close(epoll_fd_);
}

void EventLoop::Add(int fd, std::uint32_t events, IoHandler handler) {
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    handlers_.erase(fd);
    throw std::runtime_error("epoll_ctl(ADD) failed");
  }
}

void EventLoop::Update(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw std::runtime_error("epoll_ctl(MOD) failed");
  }
}

void EventLoop::Remove(int fd) {
  handlers_.erase(fd);
  // The fd may already be closed (EBADF) -- removal must stay idempotent.
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout_ms=*/-1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      std::perror("lockin net: epoll_wait");
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) {
        continue;  // removed by an earlier handler this iteration
      }
      const std::shared_ptr<IoHandler> handler = it->second;
      (*handler)(events[i].events);
    }
    RunPostedTasks();
  }
  // A final task drain so a Stop() racing a Post() cannot strand a task.
  RunPostedTasks();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> guard(tasks_mu_);
    tasks_.push_back(std::move(task));
  }
  Wake();
}

void EventLoop::Wake() {
  const std::uint64_t one = 1;
  // Best-effort: EAGAIN means the counter is already nonzero (wake pending).
  [[maybe_unused]] const ssize_t n = write(wake_fd_, &one, sizeof one);
}

void EventLoop::DrainWake() {
  std::uint64_t value = 0;
  while (read(wake_fd_, &value, sizeof value) > 0) {
  }
}

void EventLoop::RunPostedTasks() {
  std::vector<std::function<void()>> pending;
  {
    std::lock_guard<std::mutex> guard(tasks_mu_);
    pending.swap(tasks_);
  }
  for (std::function<void()>& task : pending) {
    task();
  }
}

}  // namespace lockin
