// HamsterDB-shape scenarios over KvStore (paper Table 3: HamsterDB, WT /
// WT/RD / RD configurations -- 4 worker threads hammering one DB lock).
//
// read_percent is the share of read-only operations
// (point Gets 5/6, short range scans 1/6); the write remainder splits
// 3/4 Put, 1/4 Erase. The three registered configs set the paper's mixes.
#include "src/systems/scenarios/scenario_defs.hpp"

#include "src/systems/kvstore.hpp"

namespace lockin {
namespace {

class KvStoreScenario final : public ScenarioWorkload {
 public:
  struct Params {
    int read_percent = 50;
    std::uint64_t key_space = 20000;
  };

  explicit KvStoreScenario(Params params) : params_(params) {}

  void Setup(const ScenarioConfig& config) override {
    const int read_percent = params_.read_percent;
    key_space_ = config.key_space != 0 ? config.key_space : params_.key_space;
    get_below_ = read_percent * 5 / 6;
    scan_below_ = read_percent;
    put_below_ = read_percent + (100 - read_percent) * 3 / 4;
    store_ = std::make_unique<KvStore>(config.MakeLockFactory());
    // Preload every other key.
    preloaded_ = 0;
    for (std::uint64_t key = 0; key < key_space_; key += 2) {
      store_->Put(key, "initial");
      ++preloaded_;
    }
  }

  std::vector<std::string> CounterNames() const override {
    return {"gets", "get_hits", "scans", "puts", "puts_new", "erases", "erases_hit"};
  }

  void Op(ThreadContext& ctx) override {
    const std::uint64_t key = ctx.rng.NextBelow(key_space_);
    const int roll = static_cast<int>(ctx.rng.NextBelow(100));
    if (roll < get_below_) {
      ++ctx.counters[0];
      if (store_->Get(key, &ctx.value)) {
        ++ctx.counters[1];
      }
    } else if (roll < scan_below_) {
      ++ctx.counters[2];
      store_->CountRange(key, key + 64);
    } else if (roll < put_below_) {
      ++ctx.counters[3];
      AssignKey(&ctx.value, 'v', ctx.op_index);
      if (store_->Put(key, ctx.value)) {
        ++ctx.counters[4];
      }
    } else {
      ++ctx.counters[5];
      if (store_->Erase(key)) {
        ++ctx.counters[6];
      }
    }
  }

  void AddSystemMetrics(std::vector<ScenarioMetric>* out) const override {
    out->push_back({"size", static_cast<double>(store_->Size())});
    out->push_back({"preloaded", static_cast<double>(preloaded_)});
    out->push_back({"invariants_ok", store_->CheckInvariants() ? 1.0 : 0.0});
  }

 private:
  Params params_;
  int get_below_ = 0;
  int scan_below_ = 0;
  int put_below_ = 0;
  std::uint64_t key_space_ = 0;
  std::uint64_t preloaded_ = 0;
  std::unique_ptr<KvStore> store_;
};

}  // namespace

void RegisterKvStoreScenarios(ScenarioRegistry& registry) {
  auto add = [&registry](const char* name, const char* description,
                         KvStoreScenario::Params params) {
    registry.Register({name, "KvStore", description},
                      [params] { return std::make_unique<KvStoreScenario>(params); });
  };
  add("kvstore/WT", "write transactions: 90% Put/Erase, 10% reads over one DB lock",
      {/*read_percent=*/10, /*key_space=*/20000});
  add("kvstore/WT-RD", "mixed transactions: 50% reads/scans, 50% Put/Erase",
      {/*read_percent=*/50, /*key_space=*/20000});
  add("kvstore/RD", "read transactions: 90% Gets/scans, 10% writes",
      {/*read_percent=*/90, /*key_space=*/20000});
}

}  // namespace lockin
