#include "src/net/dispatcher.hpp"

#include <cctype>
#include <stdexcept>
#include <utility>

#include "src/platform/failpoint.hpp"
#include "src/systems/cache.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {

namespace {

std::unique_ptr<MemCache> BuildCache(const NetBackendConfig& config) {
  if (config.system != "cache") {
    throw std::invalid_argument("unknown net system: '" + config.system +
                                "'; the one system is 'cache'");
  }
  // Reuse the scenario layer's factory plumbing, so the store's locks are
  // built exactly like in-process scenario runs (src/systems/workload_api.hpp).
  ScenarioConfig scenario;
  scenario.lock_name = config.lock_name;
  return std::make_unique<MemCache>(scenario.MakeLockFactory(), MemCache::Config{});
}

}  // namespace

// Cached metric references: registry lookup takes a mutex, so resolve each
// counter once at construction and pay only the sharded increment per
// command (the MetricsRegistry discipline).
struct CommandDispatcher::Counters {
  explicit Counters(MetricsRegistry* registry)
      : get(registry->Counter("net.cmd.get")),
        set(registry->Counter("net.cmd.set")),
        del(registry->Counter("net.cmd.del")),
        ping(registry->Counter("net.cmd.ping")),
        stats(registry->Counter("net.cmd.stats")),
        size(registry->Counter("net.cmd.size")),
        quit(registry->Counter("net.cmd.quit")),
        unknown(registry->Counter("net.cmd.unknown")),
        hits(registry->Counter("net.hits")),
        misses(registry->Counter("net.misses")),
        errors(registry->Counter("net.errors")) {}

  MetricCounter& get;
  MetricCounter& set;
  MetricCounter& del;
  MetricCounter& ping;
  MetricCounter& stats;
  MetricCounter& size;
  MetricCounter& quit;
  MetricCounter& unknown;
  MetricCounter& hits;
  MetricCounter& misses;
  MetricCounter& errors;
};

CommandDispatcher::CommandDispatcher(const NetBackendConfig& config, MetricsRegistry* metrics,
                                     std::function<std::string()> stats_json)
    : cache_(BuildCache(config)),
      counters_(std::make_unique<Counters>(metrics)),
      stats_json_(std::move(stats_json)) {}

CommandDispatcher::~CommandDispatcher() = default;

CommandDispatcher::After CommandDispatcher::Execute(const RespCommand& command,
                                                    std::string* out) {
  if (command.args.empty()) {
    counters_->errors.Add();
    RespAppendError(out, "ERR empty command");
    return After::kContinue;
  }
  std::string verb = command.args[0];
  for (char& ch : verb) {
    ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  const auto arity_error = [&](const char* name) {
    counters_->errors.Add();
    RespAppendError(out, std::string("ERR wrong number of arguments for '") + name + "'");
    return After::kContinue;
  };
  (void)FailpointFired(FailpointId::kScenarioOp);  // delay-only chaos site
  if (verb == "GET") {
    if (command.args.size() != 2) {
      return arity_error("get");
    }
    counters_->get.Add();
    std::string value;
    if (cache_->Get(command.args[1], &value)) {
      counters_->hits.Add();
      RespAppendBulk(out, value);
    } else {
      counters_->misses.Add();
      RespAppendNil(out);
    }
  } else if (verb == "SET") {
    if (command.args.size() != 3) {
      return arity_error("set");
    }
    counters_->set.Add();
    cache_->Set(command.args[1], command.args[2]);
    RespAppendSimple(out, "OK");
  } else if (verb == "DEL") {
    if (command.args.size() != 2) {
      return arity_error("del");
    }
    counters_->del.Add();
    RespAppendInteger(out, cache_->Delete(command.args[1]) ? 1 : 0);
  } else if (verb == "PING") {
    counters_->ping.Add();
    RespAppendSimple(out, "PONG");
  } else if (verb == "STATS") {
    counters_->stats.Add();
    RespAppendBulk(out, stats_json_ ? stats_json_() : "{}");
  } else if (verb == "SIZE") {
    counters_->size.Add();
    RespAppendInteger(out, static_cast<long long>(cache_->Size()));
  } else if (verb == "QUIT") {
    counters_->quit.Add();
    RespAppendSimple(out, "OK");
    return After::kClose;
  } else {
    counters_->unknown.Add();
    counters_->errors.Add();
    RespAppendError(out, "ERR unknown command '" + command.args[0] + "'");
  }
  return After::kContinue;
}

}  // namespace lockin
