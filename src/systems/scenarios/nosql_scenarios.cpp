// Kyoto Cabinet-shape scenarios over the three NosqlDb backends (paper
// Table 3: Kyoto CACHE / HT DB / B-TREE). Short critical sections behind
// very few locks -- the profile where the paper's lock swap moves the most
// (1.5-1.85x, Figures 13-14).
//
// Mix: reads are point Gets; the write remainder splits 60% Set, 30%
// Append (Kyoto's read-modify-write) and 10% Remove.
#include "src/systems/scenarios/scenario_defs.hpp"

#include "src/systems/nosql.hpp"

namespace lockin {
namespace {

class NosqlScenario final : public ScenarioWorkload {
 public:
  struct Params {
    bool tree = false;  // TreeDb (B-TREE); otherwise HashDb (CACHE, HT)
    std::size_t shards = 1;  // HashDb regions
    int read_percent = 50;
    std::uint64_t key_space = 10000;
  };

  explicit NosqlScenario(Params params) : params_(params) {}

  void Setup(const ScenarioConfig& config) override {
    const int read_percent = params_.read_percent;
    key_space_ = config.key_space != 0 ? config.key_space : params_.key_space;
    get_below_ = read_percent;
    const int writes = 100 - read_percent;
    set_below_ = read_percent + writes * 6 / 10;
    append_below_ = read_percent + writes * 9 / 10;
    if (params_.tree) {
      db_ = std::make_unique<TreeDb>(config.MakeLockFactory());
    } else {
      db_ = std::make_unique<HashDb>(config.MakeLockFactory(), params_.shards);
    }
    preloaded_ = 0;
    for (std::uint64_t key = 0; key < key_space_; key += 2) {
      db_->Set(key, "initial");
      ++preloaded_;
    }
  }

  std::vector<std::string> CounterNames() const override {
    return {"gets", "get_hits", "sets", "appends", "removes", "removes_hit"};
  }

  void Op(ThreadContext& ctx) override {
    const std::uint64_t key = ctx.rng.NextBelow(key_space_);
    const int roll = static_cast<int>(ctx.rng.NextBelow(100));
    if (roll < get_below_) {
      ++ctx.counters[0];
      if (db_->Get(key, &ctx.value)) {
        ++ctx.counters[1];
      }
    } else if (roll < set_below_) {
      ++ctx.counters[2];
      AssignKey(&ctx.value, 'v', ctx.op_index);
      db_->Set(key, std::move(ctx.value));
    } else if (roll < append_below_) {
      ++ctx.counters[3];
      db_->Append(key, "+");
    } else {
      ++ctx.counters[4];
      if (db_->Remove(key)) {
        ++ctx.counters[5];
      }
    }
  }

  void AddSystemMetrics(std::vector<ScenarioMetric>* out) const override {
    out->push_back({"count", static_cast<double>(db_->Count())});
    out->push_back({"preloaded", static_cast<double>(preloaded_)});
  }

 private:
  Params params_;
  int get_below_ = 0;
  int set_below_ = 0;
  int append_below_ = 0;
  std::uint64_t key_space_ = 0;
  std::uint64_t preloaded_ = 0;
  std::unique_ptr<NosqlDb> db_;
};

}  // namespace

void RegisterNosqlScenarios(ScenarioRegistry& registry) {
  auto add = [&registry](const char* name, const char* description, bool tree,
                         std::size_t shards) {
    NosqlScenario::Params params;
    params.tree = tree;
    params.shards = shards;
    registry.Register({name, "NosqlDb", description},
                      [params] { return std::make_unique<NosqlScenario>(params); });
  };
  add("nosql/cache", "CACHE backend: one hash map behind a whole-DB lock, 50/50 mix",
      /*tree=*/false, /*shards=*/1);
  // HT keeps Kyoto's 8 bucket regions as 8 shards.
  add("nosql/hash", "HT backend: bucket-region locks (8 regions), 50/50 mix", /*tree=*/false,
      /*shards=*/8);
  add("nosql/btree", "B-TREE backend: B+-tree behind one lock, 50/50 mix", /*tree=*/true,
      /*shards=*/1);
}

}  // namespace lockin
