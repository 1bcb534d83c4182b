#include "src/systems/minisql.hpp"

namespace lockin {

MiniSql::MiniSql(const LockFactory& make_lock, Config config)
    : config_(config), write_lock_(make_lock()), pager_lock_(make_lock()) {
  warehouses_.resize(static_cast<std::size_t>(config_.warehouses));
  for (Warehouse& warehouse : warehouses_) {
    warehouse.districts.resize(static_cast<std::size_t>(config_.districts_per_warehouse));
  }
  stock_.assign(static_cast<std::size_t>(config_.warehouses),
                std::vector<int>(static_cast<std::size_t>(config_.items), 100));
}

std::uint64_t MiniSql::NewOrder(int warehouse, int district, const std::vector<int>& item_ids,
                                Xoshiro256* rng) {
  // Read phase under the pager lock (page-cache accesses).
  {
    HandleGuard pager(*pager_lock_);
    const std::vector<int>& stock = stock_[static_cast<std::size_t>(warehouse)];
    int in_stock = 0;
    for (int item : item_ids) {
      if (stock[static_cast<std::size_t>(item)] > 0) {
        ++in_stock;
      }
    }
    (void)in_stock;
  }

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
  // Stock lives in the page cache: the writer re-enters the pager lock for
  // the updates (write -> pager nesting; the read phase above released its
  // pager guard before the write lock was taken, so the order is acyclic).
  // Without this, the NEW-ORDER stock writes race the pager-lock-only
  // readers in StockLevel and the read phase.
  {
    HandleGuard pager(*pager_lock_);
    std::vector<int>& stock = stock_[static_cast<std::size_t>(warehouse)];
    for (std::size_t i = 0; i < item_ids.size(); ++i) {
      const std::size_t index = static_cast<std::size_t>(item_ids[i]);
      stock[index] -= quantities[i];
      if (stock[index] < 10) {
        stock[index] += 91;  // TPC-C restock rule
      }
    }
  }
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
  HandleGuard pager(*pager_lock_);
  const std::vector<int>& stock = stock_[static_cast<std::size_t>(warehouse)];
  int low = 0;
  for (int item = 0; item < config_.items; ++item) {
    if (stock[static_cast<std::size_t>(item)] < threshold) {
      ++low;
    }
  }
  return low;
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
