// Copy-on-write list scenarios over CowList (the paper's Figure 1
// motivating example: java.util.concurrent.CopyOnWriteArrayList, where the
// mutex-vs-spinlock choice is the power/efficiency trade the paper opens
// with). Reads are wait-free snapshot loads; every mutation copies the
// backing array under the single lock.
//
// Mix: reads split 3/4 point Gets, 1/4 full-snapshot Sums; the write
// remainder splits 80% Set (in place size), 10% Add, 10% RemoveAt, so the
// list size performs a slow random walk around its preload.
#include "src/systems/scenarios/scenario_defs.hpp"

#include "src/systems/cowlist.hpp"

namespace lockin {
namespace {

class CowListScenario final : public ScenarioWorkload {
 public:
  struct Params {
    int read_percent = 90;
    std::uint64_t list_size = 512;  // overridable via ScenarioConfig::key_space
  };

  explicit CowListScenario(Params params) : params_(params) {}

  void Setup(const ScenarioConfig& config) override {
    const int read_percent = params_.read_percent;
    list_size_ = config.key_space != 0 ? config.key_space : params_.list_size;
    get_below_ = read_percent * 3 / 4;
    sum_below_ = read_percent;
    const int writes = 100 - read_percent;
    set_below_ = read_percent + writes * 8 / 10;
    add_below_ = read_percent + writes * 9 / 10;
    list_ = std::make_unique<CowList>(config.MakeLockFactory());
    for (std::uint64_t i = 0; i < list_size_; ++i) {
      list_->Add(static_cast<std::int64_t>(i));
    }
  }

  std::vector<std::string> CounterNames() const override {
    return {"gets", "get_hits", "sums", "sets", "adds", "removes_hit"};
  }

  void Op(ThreadContext& ctx) override {
    // Indexes range over 2x the preload so out-of-range reads/writes are
    // exercised too as the size random-walks.
    const std::size_t index = static_cast<std::size_t>(ctx.rng.NextBelow(list_size_ * 2));
    const int roll = static_cast<int>(ctx.rng.NextBelow(100));
    if (roll < get_below_) {
      ++ctx.counters[0];
      std::int64_t value = 0;
      if (list_->Get(index, &value)) {
        ++ctx.counters[1];
      }
    } else if (roll < sum_below_) {
      ++ctx.counters[2];
      (void)list_->Sum();
    } else if (roll < set_below_) {
      ++ctx.counters[3];
      list_->Set(index, static_cast<std::int64_t>(ctx.op_index));
    } else if (roll < add_below_) {
      ++ctx.counters[4];
      list_->Add(static_cast<std::int64_t>(ctx.op_index));
    } else {
      if (list_->RemoveAt(index)) {
        ++ctx.counters[5];
      }
    }
  }

  void AddSystemMetrics(std::vector<ScenarioMetric>* out) const override {
    out->push_back({"size", static_cast<double>(list_->Size())});
    out->push_back({"preloaded", static_cast<double>(list_size_)});
  }

 private:
  Params params_;
  int get_below_ = 0;
  int sum_below_ = 0;
  int set_below_ = 0;
  int add_below_ = 0;
  std::uint64_t list_size_ = 0;
  std::unique_ptr<CowList> list_;
};

}  // namespace

void RegisterCowListScenarios(ScenarioRegistry& registry) {
  auto add = [&registry](const char* name, const char* description, int read_percent) {
    CowListScenario::Params params;
    params.read_percent = read_percent;
    registry.Register({name, "CowList", description},
                      [params] { return std::make_unique<CowListScenario>(params); });
  };
  add("cowlist/readmostly", "90% wait-free reads, 10% copy-on-write mutations (Figure 1 shape)",
      90);
  add("cowlist/writeheavy", "50% reads, 50% copy-on-write mutations", 50);
}

}  // namespace lockin
