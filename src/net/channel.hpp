// NetServe channel layer: Listener (accept) and Connection (buffered
// bidirectional byte stream) over an EventLoop.
//
// A Connection belongs to exactly one loop; every method except the
// constructor must run on that loop's thread (the server hops threads with
// EventLoop::Post). Reads are chunked into a stack buffer and handed to the
// owner's on_data callback; writes append to an in-memory output buffer
// flushed opportunistically and then via EPOLLOUT.
//
// Backpressure is per connection and byte-bounded: when the unflushed
// output exceeds Connection::kMaxOutbound (a slow or stalled reader), the
// connection *stops reading* -- EPOLLIN is dropped, so a pipelining client
// that never drains replies stops being parsed instead of ballooning the
// write queue; reading resumes once the backlog falls under
// Connection::kResumeOutbound. This is the standard proxy/server watermark
// scheme (memcached's conn_nread/write gating, libevent bufferevents).
#ifndef SRC_NET_CHANNEL_HPP_
#define SRC_NET_CHANNEL_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/net/event_loop.hpp"

namespace lockin {

// Accepting socket on the loopback interface. Port 0 binds an ephemeral
// port readable via port() after construction (how tests and the bench get
// a collision-free address).
class Listener {
 public:
  using AcceptFn = std::function<void(int fd)>;  // receives a non-blocking fd

  Listener(EventLoop& loop, std::uint16_t port);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  void Start(AcceptFn on_accept);
  void Close();  // stop accepting; idempotent

  std::uint16_t port() const { return port_; }

 private:
  EventLoop& loop_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  AcceptFn on_accept_;
};

class Connection {
 public:
  static constexpr std::size_t kReadChunk = 16 * 1024;
  // Stop reading above kMaxOutbound bytes of unflushed replies; resume
  // below kResumeOutbound. Resume < max gives hysteresis so a borderline
  // client doesn't flap EPOLLIN on every flushed byte.
  static constexpr std::size_t kMaxOutbound = 1 << 20;
  static constexpr std::size_t kResumeOutbound = 1 << 18;

  // `on_data` receives every chunk read from the peer (called on the loop
  // thread, possibly multiple times per iteration). `on_close` fires
  // exactly once -- peer EOF, error, or Close* -- after the fd is
  // deregistered; the owner usually deletes the connection there.
  using DataFn = std::function<void(std::string_view data)>;
  using CloseFn = std::function<void()>;

  Connection(EventLoop& loop, int fd);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void Start(DataFn on_data, CloseFn on_close);

  // Queues bytes for the peer and flushes what the socket accepts now; the
  // rest goes out under EPOLLOUT. Silently drops once closing.
  void Send(std::string_view data);

  // Stops reading, flushes the remaining output, then closes and fires
  // on_close. The graceful path (QUIT, server drain).
  void CloseAfterFlush();

  // Immediate teardown: deregister, close, fire on_close. Pending output is
  // dropped (protocol-error path).
  void CloseNow();

  // Graceful-drain primitive: one final read pass (everything already in
  // the kernel receive buffer still reaches on_data, so buffered pipelined
  // requests execute and their replies are queued), then CloseAfterFlush.
  // Loop-thread only.
  void DrainAndClose();

  std::size_t outbound_bytes() const { return out_.size() - out_offset_; }
  std::uint64_t bytes_in() const { return bytes_in_; }
  std::uint64_t bytes_out() const { return bytes_out_; }
  int fd() const { return fd_; }

 private:
  void HandleEvents(std::uint32_t events);
  void HandleReadable();
  void HandleWritable();
  bool FlushSome();       // returns false when the connection died
  void UpdateInterest();  // recompute the epoll mask from want_read_/output
  void Destroy();

  EventLoop& loop_;
  int fd_;
  DataFn on_data_;
  CloseFn on_close_;

  std::string read_buf_;       // per-connection read chunk
  std::string out_;            // unflushed output
  std::size_t out_offset_ = 0; // flushed prefix of out_
  bool want_read_ = true;      // effective epoll read interest
  bool want_write_ = false;
  bool paused_ = false;        // backpressure pause (watermark hysteresis)
  bool closing_ = false;       // EOF or CloseAfterFlush: read no more
  bool closed_ = false;
  bool in_callback_ = false;   // defer Destroy while inside HandleEvents
  bool destroy_pending_ = false;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

// Creates a connected blocking TCP socket to 127.0.0.1:port with
// TCP_NODELAY set (client side: loadgen, tests; loadgen flips it to
// non-blocking itself). Returns -1 on failure.
int ConnectLoopback(std::uint16_t port);

}  // namespace lockin

#endif  // SRC_NET_CHANNEL_HPP_
