// RocksDB-shape scenarios over WalStore (paper section 6: "RocksDB employs
// a write queue ... and mostly relies on a conditional variable", which is
// why the lock swap moves it the least). Writers queue under the DB lock
// and group-commit through a leader that writes with the DB lock released;
// reads take a short memtable lock.
//
// Mix: reads are point Gets; the write remainder splits 90% Put, 10%
// Delete. Every Put/Delete appends exactly one WAL record (the invariant
// the scenario tests pin).
#include "src/systems/scenarios/scenario_defs.hpp"

#include "src/systems/walstore.hpp"

namespace lockin {
namespace {

class WalStoreScenario final : public ScenarioWorkload {
 public:
  struct Params {
    int read_percent = 10;
    std::uint64_t key_space = 20000;
  };

  explicit WalStoreScenario(Params params) : params_(params) {}

  void Setup(const ScenarioConfig& config) override {
    const int read_percent = params_.read_percent;
    key_space_ = config.key_space != 0 ? config.key_space : params_.key_space;
    get_below_ = read_percent;
    put_below_ = read_percent + (100 - read_percent) * 9 / 10;
    store_ = std::make_unique<WalStore>(config.MakeLockFactory());
    preloaded_ = 0;
    for (std::uint64_t key = 0; key < key_space_; key += 2) {
      store_->Put(key, "initial");
      ++preloaded_;
    }
  }

  std::vector<std::string> CounterNames() const override {
    return {"gets", "get_hits", "puts", "deletes"};
  }

  void Op(ThreadContext& ctx) override {
    const std::uint64_t key = ctx.rng.NextBelow(key_space_);
    const int roll = static_cast<int>(ctx.rng.NextBelow(100));
    if (roll < get_below_) {
      ++ctx.counters[0];
      if (store_->Get(key, &ctx.value)) {
        ++ctx.counters[1];
      }
    } else if (roll < put_below_) {
      ++ctx.counters[2];
      AssignKey(&ctx.value, 'v', ctx.op_index);
      store_->Put(key, std::move(ctx.value));
    } else {
      ++ctx.counters[3];
      store_->Delete(key);
    }
  }

  void AddSystemMetrics(std::vector<ScenarioMetric>* out) const override {
    out->push_back({"wal_records", static_cast<double>(store_->wal_records())});
    out->push_back({"batches", static_cast<double>(store_->batches())});
    out->push_back({"memtable_size", static_cast<double>(store_->MemtableSize())});
    out->push_back({"preloaded", static_cast<double>(preloaded_)});
  }

 private:
  Params params_;
  int get_below_ = 0;
  int put_below_ = 0;
  std::uint64_t key_space_ = 0;
  std::uint64_t preloaded_ = 0;
  std::unique_ptr<WalStore> store_;
};

}  // namespace

void RegisterWalStoreScenarios(ScenarioRegistry& registry) {
  auto add = [&registry](const char* name, const char* description,
                         WalStoreScenario::Params params) {
    registry.Register({name, "WalStore", description},
                      [params] { return std::make_unique<WalStoreScenario>(params); });
  };
  add("walstore/append", "write-heavy group commit: 10% Get, 81% Put, 9% Delete",
      {/*read_percent=*/10, /*key_space=*/20000});
  add("walstore/readwrite", "balanced: 50% Get, 45% Put, 5% Delete",
      {/*read_percent=*/50, /*key_space=*/20000});
}

}  // namespace lockin
