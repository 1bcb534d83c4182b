#include "src/systems/minisql.hpp"

namespace lockin {

MiniSql::MiniSql(const LockFactory& make_lock, Config config)
    : config_(config),
      write_lock_(make_lock()),
      pager_(make_lock, config.pager_shards) {
  warehouses_.resize(static_cast<std::size_t>(config_.warehouses));
  for (Warehouse& warehouse : warehouses_) {
    warehouse.districts.resize(static_cast<std::size_t>(config_.districts_per_warehouse));
  }
  // Stock routes by warehouse id (warehouse % pager_shards); warehouses are
  // dense small ints, so modulo routing spreads them evenly.
  for (int w = 0; w < config_.warehouses; ++w) {
    pager_.UnsafeShardAt(static_cast<std::size_t>(w) % pager_.shard_count())[w].assign(
        static_cast<std::size_t>(config_.items), 100);
  }
}

std::uint64_t MiniSql::NewOrder(int warehouse, int district, const std::vector<int>& item_ids,
                                Xoshiro256* rng) {
  // Read phase under the warehouse's pager-shard lock (page-cache accesses).
  const int available = pager_.WithShard(
      static_cast<std::uint64_t>(warehouse), [&](const StockShard& shard) {
        const std::vector<int>& stock = shard.at(warehouse);
        int in_stock = 0;
        for (int item : item_ids) {
          if (stock[static_cast<std::size_t>(item)] > 0) {
            ++in_stock;
          }
        }
        return in_stock;
      });
  (void)available;

  // Write transaction under the single writer lock.
  HandleGuard writer(*write_lock_);
  District& d = warehouses_[static_cast<std::size_t>(warehouse)]
                    .districts[static_cast<std::size_t>(district)];
  const std::uint64_t order_id =
      (static_cast<std::uint64_t>(DistrictKey(warehouse, district)) << 32) | d.next_order_id;
  d.next_order_id++;
  order_counter_++;
  // Quantities are drawn and order lines inserted under the writer lock
  // (order_lines_ is writer-lock state; the RNG draw order per item is
  // unchanged from the pre-sharding code).
  std::vector<int> quantities;
  quantities.reserve(item_ids.size());
  for (int item : item_ids) {
    const int quantity = 1 + static_cast<int>(rng->NextBelow(10));
    quantities.push_back(quantity);
    order_lines_.push_back(OrderLine{order_id, item, quantity});
  }
  // Stock lives in the page cache: the writer re-enters the warehouse's
  // pager-shard lock for the updates (write -> pager-shard nesting; the
  // read phase above released its shard guard before the write lock was
  // taken, so the order is acyclic). Without this, the NEW-ORDER stock
  // writes race the shard-lock-only readers in StockLevel and the read
  // phase.
  pager_.WithShard(static_cast<std::uint64_t>(warehouse), [&](StockShard& shard) {
    std::vector<int>& stock = shard.at(warehouse);
    for (std::size_t i = 0; i < item_ids.size(); ++i) {
      const std::size_t index = static_cast<std::size_t>(item_ids[i]);
      stock[index] -= quantities[i];
      if (stock[index] < 10) {
        stock[index] += 91;  // TPC-C restock rule
      }
    }
  });
  if (order_lines_.size() > 200000) {
    order_lines_.erase(order_lines_.begin(),
                       order_lines_.begin() + static_cast<std::ptrdiff_t>(100000));
  }
  return order_id;
}

void MiniSql::Payment(int warehouse, int district, std::uint64_t customer, double amount) {
  HandleGuard writer(*write_lock_);
  Warehouse& w = warehouses_[static_cast<std::size_t>(warehouse)];
  w.ytd += amount;
  w.districts[static_cast<std::size_t>(district)].ytd += amount;
  customers_[customer] -= amount;
}

int MiniSql::StockLevel(int warehouse, int district, int threshold) {
  (void)district;
  return pager_.WithShard(
      static_cast<std::uint64_t>(warehouse), [&](const StockShard& shard) {
        const std::vector<int>& stock = shard.at(warehouse);
        int low = 0;
        for (int item = 0; item < config_.items; ++item) {
          if (stock[static_cast<std::size_t>(item)] < threshold) {
            ++low;
          }
        }
        return low;
      });
}

double MiniSql::WarehouseYtd(int warehouse) {
  HandleGuard writer(*write_lock_);
  return warehouses_[static_cast<std::size_t>(warehouse)].ytd;
}

double MiniSql::DistrictYtdSum(int warehouse) {
  HandleGuard writer(*write_lock_);
  double sum = 0;
  for (const District& d : warehouses_[static_cast<std::size_t>(warehouse)].districts) {
    sum += d.ytd;
  }
  return sum;
}

std::uint64_t MiniSql::OrderCount() {
  HandleGuard writer(*write_lock_);
  return order_counter_;
}

}  // namespace lockin
