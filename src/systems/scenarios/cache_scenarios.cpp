// Memcached-shape scenarios over MemCache (paper Table 3: Memcached,
// GET- vs SET-heavy mixes; Figures 13-14).
//
// The Op body keeps the exact per-op RNG call sequence of the pre-API
// cache driver (SkewedKey pick, then the GET/SET roll), so a seeded run
// through the unified driver reproduces the same hit counts and evictions
// the fig13 native rows had before the refactor.
#include "src/systems/scenarios/scenario_defs.hpp"

#include "src/systems/cache.hpp"

namespace lockin {
namespace {

class CacheScenario final : public ScenarioWorkload {
 public:
  struct Params {
    int get_percent = 50;  // rest are SETs
    std::size_t shards = 16;
    std::size_t capacity = 50000;
    std::uint64_t key_space = 60000;
  };

  explicit CacheScenario(Params params) : params_(params) {}

  void Setup(const ScenarioConfig& config) override {
    key_space_ = config.key_space != 0 ? config.key_space : params_.key_space;
    cache_ = std::make_unique<MemCache>(
        config.MakeLockFactory(),
        MemCache::Config{ShardCount(config, params_.shards), params_.capacity});
  }

  std::vector<std::string> CounterNames() const override { return {"gets", "get_hits", "sets"}; }

  void Op(ThreadContext& ctx) override {
    AssignKey(&ctx.key, 'k', SkewedKey(&ctx.rng, key_space_));
    if (static_cast<int>(ctx.rng.NextBelow(100)) < params_.get_percent) {
      ++ctx.counters[0];
      if (cache_->Get(ctx.key, &ctx.value)) {
        ++ctx.counters[1];
      }
    } else {
      ++ctx.counters[2];
      AssignKey(&ctx.value, 'v', ctx.op_index);
      cache_->Set(ctx.key, std::move(ctx.value));
    }
  }

  void AddSystemMetrics(std::vector<ScenarioMetric>* out) const override {
    out->push_back({"size", static_cast<double>(cache_->Size())});
    out->push_back({"evictions", static_cast<double>(cache_->evictions())});
  }

 private:
  Params params_;
  std::uint64_t key_space_ = 0;
  std::unique_ptr<MemCache> cache_;
};

}  // namespace

void RegisterCacheScenarios(ScenarioRegistry& registry) {
  auto add = [&registry](const char* name, const char* description, CacheScenario::Params params) {
    registry.Register({name, "MemCache", description},
                      [params] { return std::make_unique<CacheScenario>(params); });
  };
  CacheScenario::Params set_heavy;
  set_heavy.get_percent = 10;
  CacheScenario::Params get_heavy;
  get_heavy.get_percent = 90;
  add("cache/set-heavy", "10% GET / 90% SET, global LRU lock (paper-shape SET contention)",
      set_heavy);
  add("cache/get-heavy", "90% GET / 10% SET, global LRU lock (GETs spread over the stripes)",
      get_heavy);
}

}  // namespace lockin
