// NetServe request dispatcher: wire commands -> Scenario API systems.
//
// One dispatcher per server, shared by every worker loop: the backing
// store (KvStore, MemCache, or a NosqlDb backend) is built once with the
// configured lock algorithm and shard count, and its own internal
// locking is what makes concurrent Execute calls from multiple workers
// safe -- the lock under test now sits behind real request parsing, which
// is the whole point of the subsystem.
//
// The backend's locks come from the same ScenarioConfig::MakeLockFactory
// plumbing the in-process driver uses, and the `scenario/op` delay
// failpoint fires once per command, as it does once per driver op.
#ifndef SRC_NET_DISPATCHER_HPP_
#define SRC_NET_DISPATCHER_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/resp.hpp"
#include "src/obs/metrics.hpp"

namespace lockin {

// Which store serves the wire, and under what locking regime. Mirrors
// ScenarioConfig{lock_name, shards} -- the knobs the scenario layer
// already exposes, now reachable per server.
struct NetBackendConfig {
  std::string system = "kvstore";  // see CommandDispatcher::KnownSystems()
  std::string lock_name = "MUTEX";
  std::uint32_t shards = 0;  // 0 = the system's registered default shape
  std::size_t cache_capacity = 100000;  // MemCache LRU capacity
};

class CommandDispatcher {
 public:
  enum class After : std::uint8_t {
    kContinue,  // keep serving this connection
    kClose,     // flush the reply, then close (QUIT)
  };

  // `stats_json` supplies the STATS reply body (the server's metrics JSON);
  // may be null (STATS then returns an empty object).
  CommandDispatcher(const NetBackendConfig& config, MetricsRegistry* metrics,
                    std::function<std::string()> stats_json);
  ~CommandDispatcher();

  CommandDispatcher(const CommandDispatcher&) = delete;
  CommandDispatcher& operator=(const CommandDispatcher&) = delete;

  // Executes one command and appends its RESP reply to *out. Callable
  // concurrently from every worker thread.
  After Execute(const RespCommand& command, std::string* out);

  // Valid NetBackendConfig::system values.
  static std::vector<std::string> KnownSystems();

  const std::string& system() const;

  // Opaque store adapter (public so dispatcher.cpp's per-system adapters
  // can derive from it; not part of the user-facing API).
  struct Backend;

 private:
  struct Counters;

  std::unique_ptr<Backend> backend_;
  std::unique_ptr<Counters> counters_;
  std::function<std::string()> stats_json_;
  std::string system_;
};

// Key mapping for the uint64-keyed systems (KvStore, NosqlDb): an
// all-decimal-digits key is its numeric value (so clients can address
// specific shards / ranges deterministically), anything else hashes FNV-1a.
std::uint64_t NetKeyToUint64(const std::string& key);

}  // namespace lockin

#endif  // SRC_NET_DISPATCHER_HPP_
