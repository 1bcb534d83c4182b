// SQLite-shape scenarios over MiniSql (paper Table 3: SQLite running TPC-C
// with 8-64 concurrent connections). One writer lock serializes all
// mutations; the pager lock is taken by STOCK-LEVEL reads and, nested in
// the writer lock, by NEW-ORDER's stock updates -- connection counts
// beyond the hardware are what break fair spinlocks in Figures 13-14.
//
// read_percent is the STOCK-LEVEL (read-only) share; the transactional
// remainder splits between NEW-ORDER and PAYMENT in the registered ratio.
#include "src/systems/scenarios/scenario_defs.hpp"

#include <vector>

#include "src/platform/cacheline.hpp"
#include "src/systems/minisql.hpp"

namespace lockin {
namespace {

class MiniSqlScenario final : public ScenarioWorkload {
 public:
  struct Params {
    int read_percent = 12;       // STOCK-LEVEL share
    int neworder_per_mille = 511;  // NEW-ORDER share of the write remainder
    int warehouses = 4;
    int districts = 4;
    int items = 200;
  };

  explicit MiniSqlScenario(Params params) : params_(params) {}

  void Setup(const ScenarioConfig& config) override {
    const int read_percent = params_.read_percent;
    stock_below_ = read_percent;
    neworder_below_ =
        read_percent + (100 - read_percent) * params_.neworder_per_mille / 1000;
    db_ = std::make_unique<MiniSql>(
        config.MakeLockFactory(),
        MiniSql::Config{params_.warehouses, params_.districts, params_.items});
    // Per-thread NEW-ORDER item scratch, sized once here so Op never touches
    // a vector header (each slot's heap buffer is private to its thread).
    item_scratch_.assign(static_cast<std::size_t>(config.threads), ItemScratch{});
    for (ItemScratch& scratch : item_scratch_) {
      scratch.items.resize(5);
    }
  }

  std::vector<std::string> CounterNames() const override {
    return {"neworders", "payments", "stocklevels"};
  }

  void Op(ThreadContext& ctx) override {
    const int warehouse = static_cast<int>(ctx.rng.NextBelow(
        static_cast<std::uint64_t>(params_.warehouses)));
    const int district = static_cast<int>(ctx.rng.NextBelow(
        static_cast<std::uint64_t>(params_.districts)));
    const int roll = static_cast<int>(ctx.rng.NextBelow(100));
    if (roll < stock_below_) {
      ++ctx.counters[2];
      db_->StockLevel(warehouse, district, 50);
    } else if (roll < neworder_below_) {
      ++ctx.counters[0];
      std::vector<int>& items =
          item_scratch_[static_cast<std::size_t>(ctx.thread_index)].items;
      for (int& item : items) {
        item = static_cast<int>(ctx.rng.NextBelow(static_cast<std::uint64_t>(params_.items)));
      }
      db_->NewOrder(warehouse, district, items, &ctx.rng);
    } else {
      ++ctx.counters[1];
      db_->Payment(warehouse, district, ctx.rng.NextBelow(1000), 1.0);
    }
  }

  void AddSystemMetrics(std::vector<ScenarioMetric>* out) const override {
    out->push_back({"order_count", static_cast<double>(db_->OrderCount())});
    double ytd = 0;
    double district_ytd = 0;
    for (int w = 0; w < params_.warehouses; ++w) {
      ytd += db_->WarehouseYtd(w);
      district_ytd += db_->DistrictYtdSum(w);
    }
    out->push_back({"warehouse_ytd", ytd});
    out->push_back({"district_ytd", district_ytd});
  }

 private:
  struct alignas(kCacheLineSize) ItemScratch {
    std::vector<int> items;
  };

  Params params_;
  int stock_below_ = 0;
  int neworder_below_ = 0;
  std::unique_ptr<MiniSql> db_;
  std::vector<ItemScratch> item_scratch_;
};

}  // namespace

void RegisterMiniSqlScenarios(ScenarioRegistry& registry) {
  auto add = [&registry](const char* name, const char* description, MiniSqlScenario::Params params) {
    registry.Register({name, "MiniSql", description},
                      [params] { return std::make_unique<MiniSqlScenario>(params); });
  };
  MiniSqlScenario::Params neworder;  // TPC-C-ish 45/43/12 NEW-ORDER/PAYMENT/STOCK-LEVEL
  MiniSqlScenario::Params payment;
  payment.read_percent = 10;
  payment.neworder_per_mille = 111;  // ~10/80/10
  add("minisql/neworder", "TPC-C-like mix: 45% NEW-ORDER, 43% PAYMENT, 12% STOCK-LEVEL",
      neworder);
  add("minisql/payment", "payment-heavy: 10% NEW-ORDER, 80% PAYMENT, 10% STOCK-LEVEL", payment);
}

}  // namespace lockin
