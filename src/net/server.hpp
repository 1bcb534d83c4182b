// NetServe server: N worker threads, each owning one epoll EventLoop,
// serving the RESP codec over loopback TCP and dispatching into one
// MemCache store (src/net/dispatcher.hpp).
//
// Thread shape (the memcached model): the Listener lives on worker 0's
// loop; accepted fds are handed round-robin to a worker via Post, and from
// then on that connection's parsing, dispatch and replies all happen on
// that one worker thread -- no per-connection locks. The backing store is
// shared and internally locked, so the lock algorithm under test is
// exercised by real cross-thread contention whenever workers > 1.
//
// Shutdown has two grades:
//   Drain()  -- graceful: stop accepting, give every live connection one
//               final read pass (buffered pipelined commands still execute
//               and their replies flush before the close), then close.
//               In-flight requests are never dropped; this is the
//               SIGTERM/SIGINT path.
//   Stop()   -- immediate: connections are torn down with queued output
//               discarded. Test/abort path.
// Both are thread-safe and idempotent; Join() waits for the workers.
//
// Observability: every server owns a standalone MetricsRegistry (isolated
// per instance so tests can assert exact counter invariants):
//   net.conn.accepted/closed, net.conn.active (gauge),
//   net.requests / net.replies, net.bytes.in/out,
//   net.protocol_errors, net.service_ns (histogram around Execute),
//   plus the dispatcher's net.cmd.* / net.hits / net.misses / net.errors.
// STATS over the wire returns the registry's JSON (StatsJson()).
#ifndef SRC_NET_SERVER_HPP_
#define SRC_NET_SERVER_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/channel.hpp"
#include "src/net/dispatcher.hpp"
#include "src/net/event_loop.hpp"
#include "src/obs/metrics.hpp"

namespace lockin {

struct NetServerOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
  std::size_t workers = 1;
  NetBackendConfig backend;
};

class LockServer {
 public:
  explicit LockServer(const NetServerOptions& options);
  ~LockServer();  // Stop() + Join() if still running

  LockServer(const LockServer&) = delete;
  LockServer& operator=(const LockServer&) = delete;

  // Binds, starts the worker threads, begins accepting. Throws on bind
  // failure. Call once.
  void Start();

  std::uint16_t port() const { return port_; }

  void Drain();  // graceful shutdown; returns immediately, Join() to wait
  void Stop();   // immediate shutdown
  void Join();   // waits for every worker thread to exit

  MetricsRegistry& metrics() { return metrics_; }
  std::string StatsJson() const;

 private:
  struct Worker;
  struct Client;
  struct Stats;

  void AcceptFd(int fd);
  void AdoptConnection(Worker& worker, int fd);
  void OnData(Client* client, std::string_view data);
  void OnClose(Worker& worker, Client* client);

  NetServerOptions options_;
  MetricsRegistry metrics_;
  std::unique_ptr<Stats> stats_;
  std::unique_ptr<CommandDispatcher> dispatcher_;
  std::atomic<long long> active_conns_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Listener> listener_;  // lives on workers_[0]'s loop
  std::uint16_t port_ = 0;
  std::atomic<std::size_t> next_worker_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> joined_{false};
};

}  // namespace lockin

#endif  // SRC_NET_SERVER_HPP_
