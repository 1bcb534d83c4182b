#include "src/net/loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/channel.hpp"
#include "src/net/resp.hpp"
#include "src/platform/json.hpp"

namespace lockin {
namespace {

// The request mix.
constexpr int kGetPercent = 80;  // the rest are SETs
constexpr std::uint64_t kKeySpace = 10000;
constexpr std::size_t kValueBytes = 64;
constexpr std::uint64_t kSeed = 42;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ClientConn {
  int fd = -1;
  RespReplyParser parser;
  std::string outbox;
  std::size_t out_off = 0;
  std::deque<std::uint64_t> sent_ns;  // enqueue timestamp per in-flight request
  bool dead = false;

  std::size_t inflight() const { return sent_ns.size(); }
  bool has_output() const { return out_off < outbox.size(); }
};

struct WorkerStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t not_found = 0;
  LatencyHistogram latency_ns;
};

void RunWorker(const LoadgenOptions& options, std::size_t thread_index,
               std::size_t conn_count, WorkerStats* stats) {
  const std::size_t pipeline = std::max<std::size_t>(1, options.pipeline);
  std::mt19937_64 rng(kSeed + 0x9e3779b97f4a7c15ULL * (thread_index + 1));
  const std::string value(kValueBytes, 'v');

  std::vector<ClientConn> conns(conn_count);
  for (ClientConn& conn : conns) {
    conn.fd = ConnectLoopback(options.port);
    if (conn.fd < 0) {
      conn.dead = true;
      stats->errors += 1;
      continue;
    }
    fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL, 0) | O_NONBLOCK);
  }

  const std::uint64_t send_until_ns = NowNs() + options.duration_ms * 1000000ULL;
  const std::uint64_t drain_until_ns = send_until_ns + 5ULL * 1000000000ULL;

  std::vector<std::string> args;
  const auto enqueue = [&](ClientConn& conn) {
    args.clear();
    const std::uint64_t key = rng() % kKeySpace;
    if (static_cast<int>(rng() % 100) < kGetPercent) {
      args.push_back("GET");
      args.push_back(std::to_string(key));
    } else {
      args.push_back("SET");
      args.push_back(std::to_string(key));
      args.push_back(value);
    }
    RespAppendCommand(&conn.outbox, args);
    conn.sent_ns.push_back(NowNs());
  };

  std::vector<pollfd> pollfds(conns.size());
  std::vector<char> read_buf(64 * 1024);
  RespReply reply;
  std::string parse_error;

  for (;;) {
    const std::uint64_t now = NowNs();

    // Top up every live connection to `pipeline` requests in flight.
    std::size_t live = 0;
    std::size_t inflight_total = 0;
    if (now < send_until_ns) {
      for (ClientConn& conn : conns) {
        while (!conn.dead && conn.inflight() < pipeline) {
          enqueue(conn);
        }
      }
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      ClientConn& conn = conns[i];
      pollfds[i].fd = conn.dead ? -1 : conn.fd;  // poll ignores negative fds
      pollfds[i].events = static_cast<short>(POLLIN | (conn.has_output() ? POLLOUT : 0));
      pollfds[i].revents = 0;
      if (!conn.dead) {
        ++live;
        inflight_total += conn.inflight();
      }
    }
    if (live == 0) {
      break;
    }
    if (now >= send_until_ns && inflight_total == 0) {
      break;
    }
    if (now >= drain_until_ns) {
      stats->errors += inflight_total;  // replies the server never delivered
      break;
    }

    (void)poll(pollfds.data(), pollfds.size(), /*timeout_ms=*/10);

    for (std::size_t i = 0; i < conns.size(); ++i) {
      ClientConn& conn = conns[i];
      if (conn.dead || pollfds[i].revents == 0) {
        continue;
      }
      if ((pollfds[i].revents & POLLOUT) != 0 && conn.has_output()) {
        const ssize_t n = write(conn.fd, conn.outbox.data() + conn.out_off,
                                conn.outbox.size() - conn.out_off);
        if (n > 0) {
          conn.out_off += static_cast<std::size_t>(n);
          if (!conn.has_output()) {
            conn.outbox.clear();
            conn.out_off = 0;
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          conn.dead = true;
          stats->errors += 1;
          continue;
        }
      }
      if ((pollfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const ssize_t n = read(conn.fd, read_buf.data(), read_buf.size());
        if (n > 0) {
          conn.parser.Feed(std::string_view(read_buf.data(), static_cast<std::size_t>(n)));
          const std::uint64_t recv_ns = NowNs();
          for (;;) {
            const RespParseStatus status = conn.parser.Next(&reply, &parse_error);
            if (status == RespParseStatus::kNeedMore) {
              break;
            }
            if (status == RespParseStatus::kError) {
              conn.dead = true;
              stats->errors += 1;
              break;
            }
            if (!conn.sent_ns.empty()) {
              stats->latency_ns.Record(recv_ns - conn.sent_ns.front());
              conn.sent_ns.pop_front();
            }
            stats->requests += 1;
            if (reply.type == RespReply::Type::kNil) {
              stats->not_found += 1;
            } else if (reply.type == RespReply::Type::kError) {
              stats->errors += 1;
            }
          }
        } else if (n == 0) {
          conn.dead = true;  // server closed (drain); in-flight counted at exit
        } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          conn.dead = true;
          stats->errors += 1;
        }
      }
    }
  }

  for (ClientConn& conn : conns) {
    if (conn.fd >= 0) {
      close(conn.fd);
    }
  }
}

}  // namespace

LoadgenResult RunLoadgen(const LoadgenOptions& options) {
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  const std::size_t connections = std::max<std::size_t>(1, options.connections);
  std::vector<WorkerStats> stats(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const std::uint64_t start_ns = NowNs();
  for (std::size_t t = 0; t < threads; ++t) {
    // Stripe connections over threads; thread 0 takes the remainder.
    std::size_t count = connections / threads + (t < connections % threads ? 1 : 0);
    if (count == 0) {
      continue;
    }
    workers.emplace_back(RunWorker, std::cref(options), t, count, &stats[t]);
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  LoadgenResult result;
  result.seconds = static_cast<double>(NowNs() - start_ns) / 1e9;
  for (const WorkerStats& s : stats) {
    result.requests += s.requests;
    result.errors += s.errors;
    result.not_found += s.not_found;
    result.latency_ns.Merge(s.latency_ns);
  }
  return result;
}

std::string LoadgenResult::ToJson() const {
  std::ostringstream out;
  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; };
  out << "{";
  WriteJsonString(out, "requests");
  out << ": " << requests << ", ";
  WriteJsonString(out, "requests_per_s");
  out << ": " << RequestsPerS() << ", ";
  WriteJsonString(out, "seconds");
  out << ": " << seconds << ", ";
  WriteJsonString(out, "errors");
  out << ": " << errors << ", ";
  WriteJsonString(out, "not_found");
  out << ": " << not_found << ", ";
  WriteJsonString(out, "latency_us");
  out << ": {";
  WriteJsonString(out, "mean");
  out << ": " << us(static_cast<std::uint64_t>(latency_ns.Mean())) << ", ";
  WriteJsonString(out, "p50");
  out << ": " << us(latency_ns.P50()) << ", ";
  WriteJsonString(out, "p99");
  out << ": " << us(latency_ns.P99()) << ", ";
  WriteJsonString(out, "max");
  out << ": " << us(latency_ns.max());
  out << "}}";
  return out.str();
}

}  // namespace lockin
