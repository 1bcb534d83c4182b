// NetServe load generator: a closed-loop, pipelined RESP client for
// lock_server.
//
// Every connection keeps `pipeline` requests in flight and sends the next
// one when a reply arrives, so it measures the server at saturation: the
// offered load follows the server's speed. The mix is fixed: 80% GET, 20%
// SET of a 64-byte value, keys uniform over [0, 10000), seeded per client
// thread. Latency is measured per request from enqueue to reply parse,
// pipelining included. For latency at a fixed offered rate, use the
// benchmark's open-loop netserve-open workload (perfbench/), which times
// each request from its due time.
//
// This lives in src/ rather than examples/ so tests can run client and
// server in one process, while examples/loadgen.cpp wraps the same engine
// behind a CLI.
#ifndef SRC_NET_LOADGEN_HPP_
#define SRC_NET_LOADGEN_HPP_

#include <cstdint>
#include <string>

#include "src/stats/histogram.hpp"

namespace lockin {

struct LoadgenOptions {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  std::size_t pipeline = 8;       // in-flight requests per connection
  std::uint64_t duration_ms = 2000;
  std::size_t threads = 1;        // client threads; connections are striped
};

struct LoadgenResult {
  std::uint64_t requests = 0;   // replies received (completed requests)
  std::uint64_t errors = 0;     // -ERR replies + connection failures
  std::uint64_t not_found = 0;  // nil GETs
  double seconds = 0;
  LatencyHistogram latency_ns;

  double RequestsPerS() const { return seconds > 0 ? requests / seconds : 0; }

  // {"requests": ..., "requests_per_s": ..., "p50_us": ..., ...} via the
  // shared platform JSON helpers.
  std::string ToJson() const;
};

// Runs the load against 127.0.0.1:options.port and blocks until the
// duration elapses and in-flight replies drain. Thread-safe to call
// concurrently with a LockServer running in the same process.
LoadgenResult RunLoadgen(const LoadgenOptions& options);

}  // namespace lockin

#endif  // SRC_NET_LOADGEN_HPP_
