// Memcached-style in-memory cache.
//
// Synchronization skeleton of the paper's Memcached target: a hash table
// with striped bucket locks plus a single LRU/eviction lock that every SET
// crosses -- which is why SET-heavy workloads contend on one lock while
// GET-heavy ones spread across the stripes (Figures 13-14, SET vs GET).
//
// Storage is an open-addressing table per shard that keeps each key's hash
// next to the entry: the key is hashed exactly once per operation and the
// stored hash is reused for shard routing, probing (full-hash compare
// short-circuits the string compare) and the LRU eviction scan.
//
// Shard routing and locking are the shared ShardedMap layer
// (src/systems/sharded.hpp), keeping the hash(key) % shards mapping the
// tests pin.
#ifndef SRC_SYSTEMS_CACHE_HPP_
#define SRC_SYSTEMS_CACHE_HPP_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/platform/cacheline.hpp"
#include "src/platform/thread_annotations.hpp"
#include "src/systems/common.hpp"
#include "src/systems/sharded.hpp"

namespace lockin {

class MemCache {
 public:
  struct Config {
    std::size_t shards = 16;        // bucket-lock stripes
    std::size_t capacity = 100000;  // max items before LRU eviction
  };

  MemCache(const LockFactory& make_lock, Config config);

  MemCache(const MemCache&) = delete;
  MemCache& operator=(const MemCache&) = delete;

  // SET: writes the item and touches the LRU under the global lru lock.
  void Set(const std::string& key, std::string value);

  // GET: reads under the shard lock only (LRU touch is sampled, like
  // memcached's lazy LRU bumping, to keep GETs off the global lock).
  bool Get(const std::string& key, std::string* out);

  bool Delete(const std::string& key);

  std::size_t Size() const;
  std::uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }

  // Key hashing and shard routing, exposed so tests can pin the mapping:
  // routing must stay hash(key) % shards across storage reworks (clients
  // and benches rely on a stable key -> stripe distribution).
  static std::size_t HashKey(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }
  static std::size_t ShardIndexFor(std::string_view key, std::size_t shards) {
    return HashKey(key) % shards;
  }

 private:
  enum class SlotState : std::uint8_t { kEmpty, kFull, kTombstone };

  // Open-addressing slot; `hash` is the full stored hash (computed once in
  // Set/Get/Delete, reused for probing and the eviction scan).
  struct Slot {
    std::size_t hash = 0;
    SlotState state = SlotState::kEmpty;
    std::uint64_t lru_ticket = 0;
    std::string key;
    std::string value;
  };

  // One shard's table; lives inside a ShardedMap shard header, accessed
  // only through WithShard* closures (the shard lock discipline).
  struct CacheTable {
    std::vector<Slot> slots;     // power-of-two, linear probing
    std::size_t used = 0;        // kFull entries
    std::size_t occupied = 0;    // kFull + kTombstone (drives rehash)
    std::size_t evict_cursor = 0;  // clock hand for the sampled eviction
  };

  // All of these run inside a WithShard closure (shard lock held).
  static const Slot* FindSlot(const CacheTable& table, std::size_t hash, std::string_view key);
  static Slot* FindSlotMut(CacheTable& table, std::size_t hash, std::string_view key);
  void Upsert(CacheTable& table, std::size_t hash, const std::string& key, std::string&& value,
              std::uint64_t ticket);
  static void GrowTable(CacheTable& table);
  void TombstoneSlot(CacheTable& table, Slot& slot);
  void EvictOneFrom(CacheTable& table);

  void EvictIfNeeded() LL_REQUIRES(*lru_lock_);

  Config config_;
  ShardedMap<CacheTable> shards_;
  std::unique_ptr<LockHandle> lru_lock_;
  // Global LRU clock, guarded by lru_lock_. Own line: every Get reads
  // shards_, every Set writes lru_clock_ and size_.
  alignas(kCacheLineSize) std::uint64_t lru_clock_ LL_GUARDED_BY(*lru_lock_) = 0;
  // Written under lru_lock_ (eviction runs inside Set) but read by the
  // unsynchronized evictions() accessor: atomic with relaxed ordering (it
  // is a monotone statistic, not a synchronizer).
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> size_{0};
};

}  // namespace lockin

#endif  // SRC_SYSTEMS_CACHE_HPP_
