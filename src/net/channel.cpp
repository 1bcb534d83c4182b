#include "src/net/channel.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace lockin {
namespace {

void SetNoDelay(int fd) {
  // Request/reply benchmarking over loopback: Nagle would serialize
  // pipelined batches behind delayed ACKs.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

// --- Listener ----------------------------------------------------------------

Listener::Listener(EventLoop& loop, std::uint16_t port) : loop_(loop) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error("socket() failed");
  }
  const int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(fd_, 512) != 0) {
    const int err = errno;
    close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("bind/listen on loopback failed: ") +
                             std::strerror(err));
  }
  socklen_t len = sizeof addr;
  getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

Listener::~Listener() { Close(); }

void Listener::Start(AcceptFn on_accept) {
  on_accept_ = std::move(on_accept);
  loop_.Add(fd_, EPOLLIN, [this](std::uint32_t) {
    for (;;) {
      const int conn_fd = accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (conn_fd < 0) {
        return;  // EAGAIN (drained) or transient accept error: wait for epoll
      }
      SetNoDelay(conn_fd);
      on_accept_(conn_fd);
    }
  });
}

void Listener::Close() {
  if (fd_ >= 0) {
    loop_.Remove(fd_);
    close(fd_);
    fd_ = -1;
  }
}

// --- Connection --------------------------------------------------------------

Connection::Connection(EventLoop& loop, int fd) : loop_(loop), fd_(fd) {
  read_buf_.resize(kReadChunk);
}

Connection::~Connection() {
  if (!closed_) {
    closed_ = true;
    loop_.Remove(fd_);
    close(fd_);
  }
}

void Connection::Start(DataFn on_data, CloseFn on_close) {
  on_data_ = std::move(on_data);
  on_close_ = std::move(on_close);
  loop_.Add(fd_, EPOLLIN, [this](std::uint32_t events) { HandleEvents(events); });
}

void Connection::HandleEvents(std::uint32_t events) {
  if (closed_) {
    return;
  }
  in_callback_ = true;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    destroy_pending_ = true;
  } else {
    if ((events & EPOLLIN) != 0) {
      HandleReadable();
    }
    if (!destroy_pending_ && (events & EPOLLOUT) != 0) {
      HandleWritable();
    }
    if (!destroy_pending_) {
      UpdateInterest();
    }
  }
  in_callback_ = false;
  if (destroy_pending_) {
    Destroy();  // may delete `this`: return immediately
  }
}

void Connection::HandleReadable() {
  for (;;) {
    const ssize_t n = read(fd_, read_buf_.data(), read_buf_.size());
    if (n > 0) {
      bytes_in_ += static_cast<std::uint64_t>(n);
      on_data_(std::string_view(read_buf_.data(), static_cast<std::size_t>(n)));
      if (closing_ || destroy_pending_) {
        return;  // the callback closed us
      }
      // Backpressure: replies queued by on_data past the high watermark stop
      // this read pass; UpdateInterest drops EPOLLIN after the handler.
      if (outbound_bytes() > kMaxOutbound) {
        return;
      }
      continue;
    }
    if (n == 0) {
      // Peer EOF (possibly a half-close: client shutdown(SHUT_WR) and still
      // reads). Finish flushing queued replies, then tear down.
      closing_ = true;
      if (!FlushSome()) {
        return;
      }
      if (outbound_bytes() == 0) {
        destroy_pending_ = true;
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return;
    }
    destroy_pending_ = true;  // ECONNRESET and friends
    return;
  }
}

void Connection::HandleWritable() {
  if (!FlushSome()) {
    return;
  }
  if (closing_ && outbound_bytes() == 0) {
    destroy_pending_ = true;
  }
}

bool Connection::FlushSome() {
  while (out_offset_ < out_.size()) {
    const ssize_t n = write(fd_, out_.data() + out_offset_, out_.size() - out_offset_);
    if (n > 0) {
      out_offset_ += static_cast<std::size_t>(n);
      bytes_out_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return true;
    }
    destroy_pending_ = true;  // EPIPE and friends
    return false;
  }
  out_.clear();
  out_offset_ = 0;
  return true;
}

void Connection::Send(std::string_view data) {
  if (closed_ || destroy_pending_) {
    return;
  }
  out_.append(data);
  // Opportunistic flush when EPOLLOUT is not already armed: the common case
  // writes the whole reply in one syscall and never touches epoll_ctl.
  if (!want_write_) {
    if (!FlushSome()) {
      if (!in_callback_) {
        Destroy();
      }
      return;
    }
  }
  if (!in_callback_) {
    UpdateInterest();
  }
}

void Connection::CloseAfterFlush() {
  if (closed_ || destroy_pending_) {
    return;
  }
  closing_ = true;
  if (!FlushSome()) {
    if (!in_callback_) {
      Destroy();
    }
    return;
  }
  if (outbound_bytes() == 0) {
    if (in_callback_) {
      destroy_pending_ = true;
    } else {
      Destroy();
    }
    return;
  }
  if (!in_callback_) {
    UpdateInterest();  // arm EPOLLOUT for the remaining bytes
  }
}

void Connection::DrainAndClose() {
  if (closed_ || destroy_pending_) {
    return;
  }
  in_callback_ = true;
  HandleReadable();  // consume what the kernel already buffered
  in_callback_ = false;
  if (destroy_pending_) {
    Destroy();
    return;
  }
  CloseAfterFlush();
}

void Connection::CloseNow() {
  if (closed_) {
    return;
  }
  if (in_callback_) {
    destroy_pending_ = true;
    return;
  }
  Destroy();
}

void Connection::UpdateInterest() {
  const std::size_t backlog = outbound_bytes();
  if (!paused_ && backlog > kMaxOutbound) {
    paused_ = true;
  } else if (paused_ && backlog < kResumeOutbound) {
    paused_ = false;
  }
  const bool want_read = !closing_ && !paused_;
  const bool want_write = backlog > 0;
  if (want_read == want_read_ && want_write == want_write_) {
    return;
  }
  want_read_ = want_read;
  want_write_ = want_write;
  loop_.Update(fd_, (want_read_ ? EPOLLIN : 0u) | (want_write_ ? EPOLLOUT : 0u));
}

void Connection::Destroy() {
  if (closed_) {
    return;
  }
  closed_ = true;
  loop_.Remove(fd_);
  close(fd_);
  const CloseFn on_close = std::move(on_close_);
  if (on_close) {
    on_close();  // may delete `this`; touch nothing afterwards
  }
}

int ConnectLoopback(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  SetNoDelay(fd);
  return fd;
}

}  // namespace lockin
