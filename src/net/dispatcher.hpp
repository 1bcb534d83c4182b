// NetServe request dispatcher: wire commands -> one MemCache store.
//
// One dispatcher per server, shared by every worker loop. It serves the
// paper's Memcached target: MemCache in its 16-stripe shape, whose every
// SET crosses the one global LRU lock. The store is built once with the
// configured lock algorithm, and its own internal locking is what makes
// concurrent Execute calls from multiple workers safe -- the lock under
// test now sits behind real request parsing, which is the whole point of
// the subsystem.
//
// The store's locks come from the same ScenarioConfig::MakeLockFactory
// plumbing the in-process driver uses, and the `scenario/op` delay
// failpoint fires once per command, as it does once per driver op.
#ifndef SRC_NET_DISPATCHER_HPP_
#define SRC_NET_DISPATCHER_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/net/resp.hpp"
#include "src/obs/metrics.hpp"

namespace lockin {

class MemCache;

// The store behind the wire and its lock algorithm. "cache" (MemCache) is
// the one store; any other `system` throws std::invalid_argument.
struct NetBackendConfig {
  std::string system = "cache";
  std::string lock_name = "MUTEX";
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

  // Executes one command (GET SET DEL PING STATS SIZE QUIT) and appends its
  // RESP reply to *out. Callable concurrently from every worker thread.
  After Execute(const RespCommand& command, std::string* out);

 private:
  struct Counters;

  std::unique_ptr<MemCache> cache_;
  std::unique_ptr<Counters> counters_;
  std::function<std::string()> stats_json_;
};

}  // namespace lockin

#endif  // SRC_NET_DISPATCHER_HPP_
