// NetServe client CLI: closed-loop, pipelined RESP load against
// lock_server, for throughput at saturation.
//
//   $ ./loadgen --port 7911 --connections 8 --pipeline 64 --duration-ms 5000
//   $ ./loadgen --port 7911 --pipeline 8 --json
//
// Flags:
//   --port N          server port on 127.0.0.1 (required)
//   --connections N   concurrent connections (default 4)
//   --pipeline N      in-flight requests per connection (default 8)
//   --duration-ms N   send window in milliseconds (default 2000)
//   --threads N       client threads; connections are striped (default 1)
//   --json            print the result as one JSON object (default: text)
//
// Every connection keeps its pipeline full, so the offered load follows the
// server's speed. The mix is fixed (src/net/loadgen.hpp): 80% GET, 20% SET
// of 64-byte values over 10000 keys. Latency at a fixed offered rate is the
// benchmark's open-loop netserve-open workload (perfbench/).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/net/loadgen.hpp"

namespace {

using namespace lockin;

void PrintUsage(const char* prog, std::FILE* out) {
  std::fprintf(out,
               "usage: %s --port N [options]\n"
               "  --connections N  --pipeline N  --duration-ms N  --threads N  --json\n",
               prog);
}

[[noreturn]] void Fail(const char* prog, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
  PrintUsage(prog, stderr);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions options;
  bool json = false;
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
      options.port = static_cast<std::uint16_t>(int_of(i, "--port", 1, 65535));
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      options.connections = static_cast<std::size_t>(int_of(i, "--connections", 1, 10000));
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      options.pipeline = static_cast<std::size_t>(int_of(i, "--pipeline", 1, 100000));
    } else if (std::strcmp(argv[i], "--duration-ms") == 0) {
      options.duration_ms = static_cast<std::uint64_t>(int_of(i, "--duration-ms", 1, 86400000));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      options.threads = static_cast<std::size_t>(int_of(i, "--threads", 1, 256));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage(argv[0], stdout);
      return 0;
    } else {
      Fail(argv[0], std::string("unrecognized argument: ") + argv[i]);
    }
  }
  if (options.port == 0) {
    Fail(argv[0], "--port is required");
  }

  const LoadgenResult result = RunLoadgen(options);
  if (json) {
    std::printf("%s\n", result.ToJson().c_str());
  } else {
    std::printf("requests:       %llu (%.0f/s over %.2fs)\n",
                static_cast<unsigned long long>(result.requests), result.RequestsPerS(),
                result.seconds);
    std::printf("errors:         %llu\n", static_cast<unsigned long long>(result.errors));
    std::printf("nil GETs:       %llu\n", static_cast<unsigned long long>(result.not_found));
    std::printf("latency (us):   p50=%.1f p99=%.1f max=%.1f\n",
                result.latency_ns.P50() / 1000.0, result.latency_ns.P99() / 1000.0,
                result.latency_ns.max() / 1000.0);
  }
  // Nothing answered: the target is down or the port is wrong. Scripts (CI
  // net-smoke) key off a nonzero exit instead of parsing for zero.
  return result.requests > 0 ? 0 : 1;
}
