#include "src/net/dispatcher.hpp"

#include <cctype>
#include <stdexcept>
#include <utility>

#include "src/platform/failpoint.hpp"
#include "src/systems/cache.hpp"
#include "src/systems/kvstore.hpp"
#include "src/systems/nosql.hpp"
#include "src/systems/workload_api.hpp"

namespace lockin {

std::uint64_t NetKeyToUint64(const std::string& key) {
  if (!key.empty() && key.size() <= 19) {
    std::uint64_t value = 0;
    bool all_digits = true;
    for (const char ch : key) {
      if (ch < '0' || ch > '9') {
        all_digits = false;
        break;
      }
      value = value * 10 + static_cast<std::uint64_t>(ch - '0');
    }
    if (all_digits) {
      return value;
    }
  }
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64
  for (const char ch : key) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// --- Backend adapters --------------------------------------------------------

// Uniform store interface over the three Scenario API system families. All
// methods are called concurrently; thread safety comes from the systems'
// own locks (built from the configured lock factory).
struct CommandDispatcher::Backend {
  virtual ~Backend() = default;
  virtual bool Get(const std::string& key, std::string* out) = 0;
  virtual void Set(const std::string& key, std::string value) = 0;
  virtual bool Del(const std::string& key) = 0;
  // Returns false when the system has no append operation.
  virtual bool Append(const std::string& key, const std::string& suffix) = 0;
  virtual std::size_t Size() = 0;
};

namespace {

struct KvBackend final : CommandDispatcher::Backend {
  KvBackend(const LockFactory& make_lock, std::size_t shards) : store(make_lock, shards) {}
  bool Get(const std::string& key, std::string* out) override {
    return store.Get(NetKeyToUint64(key), out);
  }
  void Set(const std::string& key, std::string value) override {
    store.Put(NetKeyToUint64(key), std::move(value));
  }
  bool Del(const std::string& key) override { return store.Erase(NetKeyToUint64(key)); }
  bool Append(const std::string&, const std::string&) override { return false; }
  std::size_t Size() override { return store.Size(); }
  KvStore store;
};

struct CacheBackend final : CommandDispatcher::Backend {
  CacheBackend(const LockFactory& make_lock, MemCache::Config config)
      : store(make_lock, config) {}
  bool Get(const std::string& key, std::string* out) override { return store.Get(key, out); }
  void Set(const std::string& key, std::string value) override {
    store.Set(key, std::move(value));
  }
  bool Del(const std::string& key) override { return store.Delete(key); }
  bool Append(const std::string&, const std::string&) override { return false; }
  std::size_t Size() override { return store.Size(); }
  MemCache store;
};

struct NosqlBackend final : CommandDispatcher::Backend {
  explicit NosqlBackend(std::unique_ptr<NosqlDb> db_in) : db(std::move(db_in)) {}
  bool Get(const std::string& key, std::string* out) override {
    return db->Get(NetKeyToUint64(key), out);
  }
  void Set(const std::string& key, std::string value) override {
    db->Set(NetKeyToUint64(key), std::move(value));
  }
  bool Del(const std::string& key) override { return db->Remove(NetKeyToUint64(key)); }
  bool Append(const std::string& key, const std::string& suffix) override {
    db->Append(NetKeyToUint64(key), suffix);
    return true;
  }
  std::size_t Size() override { return db->Count(); }
  std::unique_ptr<NosqlDb> db;
};

std::unique_ptr<CommandDispatcher::Backend> BuildBackend(const NetBackendConfig& config) {
  // Reuse the scenario layer's factory plumbing, so backend locks are built
  // exactly like in-process scenario runs (src/systems/workload_api.hpp).
  ScenarioConfig scenario;
  scenario.lock_name = config.lock_name;
  const LockFactory factory = scenario.MakeLockFactory();

  const auto shards = [&](std::size_t default_shards) -> std::size_t {
    return config.shards > 0 ? config.shards : default_shards;
  };
  if (config.system == "kvstore") {
    return std::make_unique<KvBackend>(factory, shards(1));
  }
  if (config.system == "cache") {
    MemCache::Config cache;
    cache.shards = shards(16);
    return std::make_unique<CacheBackend>(factory, cache);
  }
  if (config.system == "nosql-cache") {
    return std::make_unique<NosqlBackend>(std::make_unique<HashDb>(factory, shards(1)));
  }
  if (config.system == "nosql-hash") {
    return std::make_unique<NosqlBackend>(std::make_unique<HashDb>(factory, shards(8)));
  }
  if (config.system == "nosql-btree") {
    return std::make_unique<NosqlBackend>(std::make_unique<TreeDb>(factory, shards(1)));
  }
  std::string known;
  for (const std::string& name : CommandDispatcher::KnownSystems()) {
    known += ' ';
    known += name;
  }
  throw std::invalid_argument("unknown net system: '" + config.system +
                              "'; known systems:" + known);
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
        append(registry->Counter("net.cmd.append")),
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
  MetricCounter& append;
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
    : backend_(BuildBackend(config)),
      counters_(std::make_unique<Counters>(metrics)),
      stats_json_(std::move(stats_json)) {
  system_ = config.system;
}

CommandDispatcher::~CommandDispatcher() = default;

std::vector<std::string> CommandDispatcher::KnownSystems() {
  return {"kvstore", "cache", "nosql-cache", "nosql-hash", "nosql-btree"};
}

const std::string& CommandDispatcher::system() const { return system_; }

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
    if (backend_->Get(command.args[1], &value)) {
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
    backend_->Set(command.args[1], command.args[2]);
    RespAppendSimple(out, "OK");
  } else if (verb == "DEL") {
    if (command.args.size() != 2) {
      return arity_error("del");
    }
    counters_->del.Add();
    RespAppendInteger(out, backend_->Del(command.args[1]) ? 1 : 0);
  } else if (verb == "APPEND") {
    if (command.args.size() != 3) {
      return arity_error("append");
    }
    counters_->append.Add();
    if (backend_->Append(command.args[1], command.args[2])) {
      RespAppendSimple(out, "OK");
    } else {
      counters_->errors.Add();
      RespAppendError(out, "ERR APPEND is not supported by system '" + system_ + "'");
    }
  } else if (verb == "PING") {
    counters_->ping.Add();
    RespAppendSimple(out, "PONG");
  } else if (verb == "STATS") {
    counters_->stats.Add();
    RespAppendBulk(out, stats_json_ ? stats_json_() : "{}");
  } else if (verb == "SIZE") {
    counters_->size.Add();
    RespAppendInteger(out, static_cast<long long>(backend_->Size()));
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
