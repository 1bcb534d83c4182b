// NetServe server CLI: serve a Scenario API system (KvStore, MemCache or a
// NosqlDb backend) over a RESP-style loopback socket, under any registered
// lock algorithm -- the networked counterpart of scenario_runner's
// in-process cache/* and kvstore/* scenarios.
//
//   $ ./lock_server --port 7911 --system cache --lock MUTEXEE --workers 2
//   $ ./lock_server --system kvstore --lock TICKET --shards 4
//
// Flags:
//   --port N          TCP port on 127.0.0.1 (default 0 = ephemeral; the
//                     bound port is printed on stdout either way)
//   --system NAME     kvstore | cache | nosql-cache | nosql-hash | nosql-btree
//   --lock NAME       lock algorithm (default MUTEX)
//   --shards N        shard count override (0 = the system's default shape)
//   --workers N       event-loop worker threads (default 1)
//   --failpoints SPEC arm named failpoints (grammar in
//                     src/platform/failpoint.hpp; `scenario/op` fires once
//                     per command)
//   --stats-every S   print the metrics JSON to stderr every S seconds
//
// SIGINT/SIGTERM drain cleanly: the listener closes, every connection gets
// its buffered pipelined commands executed and replies flushed, then the
// process exits 0 with a final stats line on stderr.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "src/locks/lock_registry.hpp"
#include "src/net/server.hpp"
#include "src/platform/failpoint.hpp"

namespace {

using namespace lockin;

std::atomic<bool> g_stop{false};
std::atomic<int> g_signal{0};

void HandleStopSignal(int sig) {
  g_stop.store(true, std::memory_order_relaxed);
  g_signal.store(sig, std::memory_order_relaxed);
}

struct ServerCliOptions {
  NetServerOptions server;
  std::string failpoints;
  long stats_every_s = 0;
};

void PrintUsage(const char* prog, std::FILE* out) {
  std::fprintf(out,
               "usage: %s [options]\n"
               "  --port N  --system kvstore|cache|nosql-cache|nosql-hash|nosql-btree\n"
               "  --lock NAME  --shards N  --workers N\n"
               "  --failpoints SPEC  --stats-every S\n",
               prog);
}

[[noreturn]] void Fail(const char* prog, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
  PrintUsage(prog, stderr);
  std::exit(2);
}

ServerCliOptions ParseArgs(int argc, char** argv) {
  ServerCliOptions options;
  auto value_of = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      Fail(argv[0], std::string(flag) + " requires a value");
    }
    return argv[++i];
  };
  auto int_of = [&](int& i, const char* flag, long min, long max) -> long {
    const char* value = value_of(i, flag);
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || parsed < min || parsed > max) {
      Fail(argv[0], std::string("invalid ") + flag + " value: " + value);
    }
    return parsed;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0) {
      options.server.port = static_cast<std::uint16_t>(int_of(i, "--port", 0, 65535));
    } else if (std::strcmp(argv[i], "--system") == 0) {
      options.server.backend.system = value_of(i, "--system");
    } else if (std::strcmp(argv[i], "--lock") == 0) {
      options.server.backend.lock_name = value_of(i, "--lock");
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      options.server.backend.shards =
          static_cast<std::uint32_t>(int_of(i, "--shards", 0, 4096));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      options.server.workers = static_cast<std::size_t>(int_of(i, "--workers", 1, 256));
    } else if (std::strcmp(argv[i], "--failpoints") == 0) {
      options.failpoints = value_of(i, "--failpoints");
    } else if (std::strcmp(argv[i], "--stats-every") == 0) {
      options.stats_every_s = int_of(i, "--stats-every", 1, 86400);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage(argv[0], stdout);
      std::exit(0);
    } else {
      Fail(argv[0], std::string("unrecognized argument: ") + argv[i]);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const ServerCliOptions options = ParseArgs(argc, argv);
  try {
    MakeLockOrThrow(options.server.backend.lock_name);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 2;
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGPIPE, SIG_IGN);  // stray writes to dead sockets are handled per-fd

  std::unique_ptr<ScopedFailpoints> failpoints;
  if (!options.failpoints.empty()) {
    try {
      failpoints = std::make_unique<ScopedFailpoints>(options.failpoints, /*seed=*/1);
    } catch (const std::exception& error) {
      Fail(argv[0], error.what());
    }
  }

  LockServer server(options.server);
  try {
    server.Start();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u (system=%s lock=%s workers=%zu)\n",
              static_cast<unsigned>(server.port()), options.server.backend.system.c_str(),
              options.server.backend.lock_name.c_str(),
              std::max<std::size_t>(1, options.server.workers));
  std::fflush(stdout);  // the port line is how scripts find an ephemeral port

  // The signal handler only stores atomics; this watcher thread turns the
  // flag into a Drain() from a normal context.
  std::uint64_t waited_ms = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    waited_ms += 50;
    if (options.stats_every_s > 0 &&
        waited_ms >= static_cast<std::uint64_t>(options.stats_every_s) * 1000) {
      waited_ms = 0;
      std::fprintf(stderr, "%s\n", server.StatsJson().c_str());
    }
  }
  server.Drain();
  server.Join();
  std::fprintf(stderr, "drained: %s\n", server.StatsJson().c_str());
  return 0;
}
