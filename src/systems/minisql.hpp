// SQLite-style embedded relational engine running a TPC-C-like workload.
//
// Reproduces the paper's SQLite target (Table 3: TPC-C, 100 warehouses,
// 8-64 concurrent connections). The synchronization skeleton: SQLite
// serializes writers through a single database write lock and protects
// shared engine state (page cache, schema) with short-critical-section
// mutexes; connection counts beyond the hardware oversubscribe the machine,
// which is what breaks fair spinlocks in Figures 13-14.
#ifndef SRC_SYSTEMS_MINISQL_HPP_
#define SRC_SYSTEMS_MINISQL_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/platform/cacheline.hpp"
#include "src/platform/rng.hpp"
#include "src/platform/thread_annotations.hpp"
#include "src/systems/common.hpp"

namespace lockin {

class MiniSql {
 public:
  struct Config {
    int warehouses = 10;
    int districts_per_warehouse = 10;
    int items = 1000;
  };

  MiniSql(const LockFactory& make_lock, Config config);

  MiniSql(const MiniSql&) = delete;
  MiniSql& operator=(const MiniSql&) = delete;

  // TPC-C-style NEW-ORDER: reads item rows, bumps the district's next order
  // id, inserts order lines. Returns the order id.
  std::uint64_t NewOrder(int warehouse, int district, const std::vector<int>& item_ids,
                         Xoshiro256* rng);

  // TPC-C-style PAYMENT: updates warehouse/district YTD and a customer row.
  void Payment(int warehouse, int district, std::uint64_t customer, double amount);

  // Read-only STOCK-LEVEL: counts items under a threshold.
  int StockLevel(int warehouse, int district, int threshold);

  // Consistency probes for tests.
  double WarehouseYtd(int warehouse);
  double DistrictYtdSum(int warehouse);
  std::uint64_t OrderCount();

 private:
  struct District {
    std::uint64_t next_order_id = 1;
    double ytd = 0;
  };
  struct Warehouse {
    double ytd = 0;
    std::vector<District> districts;
  };
  struct OrderLine {
    std::uint64_t order_id;
    int item_id;
    int quantity;
  };
  int DistrictKey(int warehouse, int district) const {
    return warehouse * config_.districts_per_warehouse + district;
  }

  Config config_;
  // Engine-wide locks, mirroring SQLite: one writer lock serializing all
  // mutations, plus the page-cache lock crossed by reads.
  std::unique_ptr<LockHandle> write_lock_;
  std::unique_ptr<LockHandle> pager_lock_;

  std::vector<Warehouse> warehouses_ LL_GUARDED_BY(*write_lock_);
  // Stock is page-cache state, warehouse -> [items] quantities: read under
  // the pager lock by NEW-ORDER's read phase and STOCK-LEVEL, and updated
  // by writers holding the pager lock *inside* their write transaction
  // (lock order: write -> pager, acyclic because readers never take the
  // write lock). Own line pair: readers read `pager_lock_` while the holder
  // writes the stock.
  alignas(kContendedPad) std::vector<std::vector<int>> stock_ LL_GUARDED_BY(*pager_lock_);
  std::map<std::uint64_t, double> customers_ LL_GUARDED_BY(*write_lock_);  // balances
  std::vector<OrderLine> order_lines_ LL_GUARDED_BY(*write_lock_);
  std::uint64_t order_counter_ LL_GUARDED_BY(*write_lock_) = 0;
};

}  // namespace lockin

#endif  // SRC_SYSTEMS_MINISQL_HPP_
