#include "src/net/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/net/resp.hpp"

namespace lockin {

// --- Internal state ----------------------------------------------------------

struct LockServer::Client {
  Client(EventLoop& loop, int fd) : conn(loop, fd) {}
  Connection conn;
  RespParser parser;
  std::string reply;  // batch buffer: one Send per read chunk
};

struct LockServer::Worker {
  std::size_t index = 0;
  EventLoop loop;
  std::thread thread;
  // Owned by the worker, touched only on its loop thread.
  std::unordered_map<Client*, std::unique_ptr<Client>> clients;
  bool draining = false;
};

struct LockServer::Stats {
  explicit Stats(MetricsRegistry* registry)
      : accepted(registry->Counter("net.conn.accepted")),
        closed(registry->Counter("net.conn.closed")),
        requests(registry->Counter("net.requests")),
        replies(registry->Counter("net.replies")),
        protocol_errors(registry->Counter("net.protocol_errors")),
        bytes_in(registry->Counter("net.bytes.in")),
        bytes_out(registry->Counter("net.bytes.out")),
        active(registry->Gauge("net.conn.active")),
        service_ns(registry->Histogram("net.service_ns")) {}

  MetricCounter& accepted;
  MetricCounter& closed;
  MetricCounter& requests;
  MetricCounter& replies;
  MetricCounter& protocol_errors;
  MetricCounter& bytes_in;
  MetricCounter& bytes_out;
  MetricGauge& active;
  MetricHistogram& service_ns;
};

// --- Lifecycle ---------------------------------------------------------------

LockServer::LockServer(const NetServerOptions& options)
    : options_(options),
      stats_(std::make_unique<Stats>(&metrics_)),
      dispatcher_(std::make_unique<CommandDispatcher>(
          options.backend, &metrics_, [this] { return StatsJson(); })) {}

LockServer::~LockServer() {
  Stop();
  Join();
}

void LockServer::Start() {
  if (started_.exchange(true)) {
    return;
  }
  const std::size_t worker_count = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    workers_.push_back(std::move(worker));
  }
  // Bind + register before any loop runs: EventLoop::Add is loop-thread-only
  // once Run starts, and this ordering guarantees port() is valid on return.
  listener_ = std::make_unique<Listener>(workers_[0]->loop, options_.port);
  port_ = listener_->port();
  listener_->Start([this](int fd) { AcceptFd(fd); });
  for (std::unique_ptr<Worker>& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([w] { w->loop.Run(); });
  }
}

void LockServer::Drain() {
  if (!started_.load() || draining_.exchange(true)) {
    return;
  }
  for (std::unique_ptr<Worker>& worker : workers_) {
    Worker* w = worker.get();
    w->loop.Post([this, w] {
      if (w->index == 0 && listener_) {
        listener_->Close();
      }
      w->draining = true;
      std::vector<Client*> clients;
      clients.reserve(w->clients.size());
      for (const auto& entry : w->clients) {
        clients.push_back(entry.first);
      }
      for (Client* client : clients) {
        if (w->clients.count(client) != 0) {
          client->conn.DrainAndClose();  // may erase `client` via on_close
        }
      }
      if (w->clients.empty()) {
        w->loop.Stop();
      }
      // Otherwise the loop stops from OnClose once the last connection
      // finishes flushing (a drained connection with pending output keeps
      // EPOLLOUT armed until the client reads its replies).
    });
  }
}

void LockServer::Stop() {
  if (!started_.load()) {
    return;
  }
  draining_.store(true);  // refuse adoptions racing the shutdown
  for (std::unique_ptr<Worker>& worker : workers_) {
    Worker* w = worker.get();
    w->loop.Post([this, w] {
      if (w->index == 0 && listener_) {
        listener_->Close();
      }
      w->draining = true;
      std::vector<Client*> clients;
      clients.reserve(w->clients.size());
      for (const auto& entry : w->clients) {
        clients.push_back(entry.first);
      }
      for (Client* client : clients) {
        if (w->clients.count(client) != 0) {
          client->conn.CloseNow();
        }
      }
      w->loop.Stop();
    });
  }
}

void LockServer::Join() {
  if (!started_.load() || joined_.exchange(true)) {
    return;
  }
  for (std::unique_ptr<Worker>& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

std::string LockServer::StatsJson() const {
  std::ostringstream out;
  metrics_.WriteJson(out);
  return out.str();
}

// --- Accept path -------------------------------------------------------------

void LockServer::AcceptFd(int fd) {
  if (draining_.load()) {
    close(fd);
    return;
  }
  const std::size_t target =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  Worker* w = workers_[target].get();
  if (target == 0) {
    AdoptConnection(*w, fd);  // already on worker 0's loop thread
  } else {
    w->loop.Post([this, w, fd] { AdoptConnection(*w, fd); });
  }
}

void LockServer::AdoptConnection(Worker& worker, int fd) {
  if (draining_.load() || worker.draining) {
    close(fd);
    return;
  }
  auto owned = std::make_unique<Client>(worker.loop, fd);
  Client* client = owned.get();
  worker.clients.emplace(client, std::move(owned));
  stats_->accepted.Add();
  stats_->active.Set(
      static_cast<double>(active_conns_.fetch_add(1, std::memory_order_relaxed) + 1));
  client->conn.Start(
      [this, client](std::string_view data) { OnData(client, data); },
      [this, &worker, client] { OnClose(worker, client); });
}

// --- Per-connection service --------------------------------------------------

void LockServer::OnData(Client* client, std::string_view data) {
  client->parser.Feed(data);
  client->reply.clear();
  RespCommand command;
  std::string parse_error;
  bool close_after = false;
  for (;;) {
    const RespParseStatus status = client->parser.Next(&command, &parse_error);
    if (status == RespParseStatus::kNeedMore) {
      break;
    }
    if (status == RespParseStatus::kError) {
      // One diagnostic reply, then close: the byte stream is unframeable
      // from here, so continuing would misparse everything after it.
      stats_->protocol_errors.Add();
      RespAppendError(&client->reply, "ERR protocol error: " + parse_error);
      close_after = true;
      break;
    }
    stats_->requests.Add();
    const auto start = std::chrono::steady_clock::now();
    const CommandDispatcher::After after = dispatcher_->Execute(command, &client->reply);
    stats_->service_ns.Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    stats_->replies.Add();
    if (after == CommandDispatcher::After::kClose) {
      close_after = true;
      break;
    }
  }
  if (!client->reply.empty()) {
    client->conn.Send(client->reply);
  }
  if (close_after) {
    client->conn.CloseAfterFlush();
  }
}

void LockServer::OnClose(Worker& worker, Client* client) {
  stats_->closed.Add();
  stats_->bytes_in.Add(client->conn.bytes_in());
  stats_->bytes_out.Add(client->conn.bytes_out());
  stats_->active.Set(
      static_cast<double>(active_conns_.fetch_sub(1, std::memory_order_relaxed) - 1));
  worker.clients.erase(client);  // deletes client (and its Connection)
  if (worker.draining && worker.clients.empty()) {
    worker.loop.Stop();
  }
}

}  // namespace lockin
