// Read-heavy reader-writer scenario over a BPlusTree guarded by the
// library's futex RwLock (src/locks/rwlock.hpp) -- the Kyoto Cabinet /
// HamsterDB shape from the paper's section 6 where most transactions only
// read and take the DB lock shared.
//
// Unlike the other scenarios this one does not swap config.lock_name in:
// reader-writer semantics are the point, and the LockHandle interface is
// mutual-exclusion only, so the RwLock is fixed and lock_name is recorded
// but ignored. Reader/writer acquire totals are reported two ways: as
// per-thread scenario counters ("reader_acquires"/"writer_acquires" in the
// result metrics, deterministic for a fixed seed) and through the process
// MetricsRegistry ("rwkv.reader_acquires"/"rwkv.writer_acquires",
// cheap sharded counters that scenario_runner --metrics exports).
#include "src/systems/scenarios/scenario_defs.hpp"

#include <mutex>

#include "src/locks/rwlock.hpp"
#include "src/obs/metrics.hpp"
#include "src/systems/btree.hpp"

namespace lockin {
namespace {

class RwKvScenario final : public ScenarioWorkload {
 public:
  struct Params {
    int read_percent = 90;
    std::uint64_t key_space = 20000;
  };

  explicit RwKvScenario(Params params) : params_(params) {}

  void Setup(const ScenarioConfig& config) override {
    const int read_percent = params_.read_percent;
    key_space_ = config.key_space != 0 ? config.key_space : params_.key_space;
    get_below_ = read_percent * 5 / 6;
    scan_below_ = read_percent;
    put_below_ = read_percent + (100 - read_percent) * 3 / 4;
    tree_ = std::make_unique<BPlusTree>();
    reader_metric_ = &MetricsRegistry::Instance().Counter("rwkv.reader_acquires");
    writer_metric_ = &MetricsRegistry::Instance().Counter("rwkv.writer_acquires");
    preloaded_ = 0;
    for (std::uint64_t key = 0; key < key_space_; key += 2) {
      tree_->Put(key, "initial");
      ++preloaded_;
    }
  }

  std::vector<std::string> CounterNames() const override {
    return {"reader_acquires", "writer_acquires", "gets", "get_hits", "scans", "puts", "erases"};
  }

  void Op(ThreadContext& ctx) override {
    const std::uint64_t key = ctx.rng.NextBelow(key_space_);
    const int roll = static_cast<int>(ctx.rng.NextBelow(100));
    if (roll < scan_below_) {
      ++ctx.counters[0];
      reader_metric_->Add(1);
      SharedGuard guard(lock_);
      if (roll < get_below_) {
        ++ctx.counters[2];
        if (tree_->Get(key, &ctx.value)) {
          ++ctx.counters[3];
        }
      } else {
        ++ctx.counters[4];
        std::uint64_t seen = 0;
        tree_->Scan(key, key + 64, [&seen](std::uint64_t, const std::string&) {
          ++seen;
          return true;
        });
      }
    } else {
      ++ctx.counters[1];
      writer_metric_->Add(1);
      std::lock_guard<RwLock> guard(lock_);
      if (roll < put_below_) {
        ++ctx.counters[5];
        AssignKey(&ctx.value, 'v', ctx.op_index);
        tree_->Put(key, ctx.value);
      } else {
        ++ctx.counters[6];
        tree_->Erase(key);
      }
    }
  }

  void AddSystemMetrics(std::vector<ScenarioMetric>* out) const override {
    out->push_back({"size", static_cast<double>(tree_->size())});
    out->push_back({"preloaded", static_cast<double>(preloaded_)});
    out->push_back({"invariants_ok", tree_->CheckInvariants() ? 1.0 : 0.0});
  }

 private:
  Params params_;
  int get_below_ = 0;
  int scan_below_ = 0;
  int put_below_ = 0;
  std::uint64_t key_space_ = 0;
  std::uint64_t preloaded_ = 0;
  MetricCounter* reader_metric_ = nullptr;
  MetricCounter* writer_metric_ = nullptr;
  RwLock lock_;
  std::unique_ptr<BPlusTree> tree_;
};

}  // namespace

void RegisterRwLockScenarios(ScenarioRegistry& registry) {
  auto add = [&registry](const char* name, const char* description, RwKvScenario::Params params) {
    registry.Register({name, "RwKv", description},
                      [params] { return std::make_unique<RwKvScenario>(params); });
  };
  add("rwkv/read-heavy",
      "90% shared-lock reads (Gets/scans) vs exclusive writes over RwLock+BPlusTree "
      "(lock_name ignored: the rwlock is the system under test)",
      {/*read_percent=*/90, /*key_space=*/20000});
  add("rwkv/write-heavy",
      "30% shared-lock reads, 70% exclusive Put/Erase over RwLock+BPlusTree "
      "(lock_name ignored)",
      {/*read_percent=*/30, /*key_space=*/20000});
}

}  // namespace lockin
