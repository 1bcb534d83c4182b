// Sharding layer for the mini-systems.
//
// ShardedMap<Table>: hash-once routing over cache-line-aligned shard
// headers, each holding one registry LockHandle and one Table partition.
// Callers hash a key exactly once, route with IndexFor (hash % shards --
// the mapping MemCache's tests pin), and run a closure under the shard's
// lock. A shard count is the only input; shards = 1 puts the whole table
// behind one lock.
//
// The Table member is deliberately *not* LL_GUARDED_BY-annotated: each
// shard's table is guarded by its own lock, a per-element capability the
// static analysis cannot name. The API shape is the discipline instead:
// the only access paths are WithShard*/ForEachShard (locked) and
// UnsafeShardAt (documented quiescent-only).
#ifndef SRC_SYSTEMS_SHARDED_HPP_
#define SRC_SYSTEMS_SHARDED_HPP_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/locks/lock_api.hpp"
#include "src/platform/cacheline.hpp"
#include "src/systems/common.hpp"

namespace lockin {

template <typename Table>
class ShardedMap {
 public:
  // `shards` = 0 clamps to 1.
  ShardedMap(const LockFactory& make_lock, std::size_t shards)
      : shard_count_(shards == 0 ? 1 : shards),
        shards_(std::make_unique<Shard[]>(shard_count_)) {
    for (std::size_t i = 0; i < shard_count_; ++i) {
      shards_[i].lock = make_lock();
    }
  }

  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  std::size_t shard_count() const { return shard_count_; }

  // hash % shards: the stable routing MemCache's tests pin. Callers hash
  // once and reuse the value for routing and in-shard probing.
  std::size_t IndexFor(std::uint64_t hash) const { return hash % shard_count_; }

  // splitmix64 finalizer for systems whose keys are small dense integers
  // (KvStore, NosqlDb): without mixing, sequential keys would stripe
  // adjacent keys across shards but leave structured workloads (e.g.
  // every-other-key preloads) lumpy under non-power-of-two shard counts.
  static std::uint64_t MixHash(std::uint64_t key) {
    key += 0x9e3779b97f4a7c15ULL;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return key ^ (key >> 31);
  }

  // Exclusive access to the shard owning `hash`. Returns fn's result. A
  // closure taking `const Table&` keeps a read path read-only.
  template <typename Fn>
  std::invoke_result_t<Fn&, Table&> WithShard(std::uint64_t hash, Fn&& fn) {
    return WithShardAt(IndexFor(hash), std::forward<Fn>(fn));
  }

  template <typename Fn>
  std::invoke_result_t<Fn&, Table&> WithShardAt(std::size_t index, Fn&& fn) {
    Shard& shard = shards_[index];
    HandleGuard guard(*shard.lock);
    return fn(shard.table);
  }

  // Exclusive visit of every shard in index order, one lock at a time
  // (aggregates: sizes, counts, invariant checks). Not a consistent global
  // snapshot -- same contract the per-region Count() paths had before.
  template <typename Fn>
  void ForEachShard(Fn&& fn) {
    for (std::size_t i = 0; i < shard_count_; ++i) {
      WithShardAt(i, fn);
    }
  }

  // Quiescent access (single-threaded setup/recovery/tests only).
  Table& UnsafeShardAt(std::size_t index) { return shards_[index].table; }

 private:
  // Line-pair aligned: adjacent shards' locks and hot table headers are
  // written by different threads on every op; sharing a line would
  // reintroduce exactly the false sharing sharding exists to remove.
  struct alignas(kContendedPad) Shard {
    std::unique_ptr<LockHandle> lock;
    // Own line pair: arriving threads read `lock` while the holder writes the table header.
    alignas(kContendedPad) Table table;
  };

  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace lockin

#endif  // SRC_SYSTEMS_SHARDED_HPP_
