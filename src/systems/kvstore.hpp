// HamsterDB-style embedded key-value store.
//
// Single B+-tree environment guarded by one coarse database lock -- the
// synchronization skeleton of the paper's HamsterDB target (4 worker
// threads hammering one DB lock; Table 3). Operation mix knobs reproduce
// the WT / WT/RD / RD configurations.
//
// ShardCombine: the environment is now a ShardedMap of B+-tree partitions.
// The default (shards = 1) keeps the paper's one-DB-lock shape exactly;
// Options{shards, combine, rw} opens the scale path -- hash-partitioned
// trees, flat-combined hot shards, shared-lock reads -- whose scaling
// `scenario_runner --thread-sweep 1,2,4,8` measures.
#ifndef SRC_SYSTEMS_KVSTORE_HPP_
#define SRC_SYSTEMS_KVSTORE_HPP_

#include <cstdint>
#include <string>

#include "src/platform/thread_annotations.hpp"
#include "src/systems/btree.hpp"
#include "src/systems/common.hpp"
#include "src/systems/sharded.hpp"

namespace lockin {

class KvStore {
 public:
  using Options = ShardOptions;  // shards = 1 preserves the paper shape

  explicit KvStore(const LockFactory& make_lock, Options options = {})
      : shards_(make_lock, options) {}

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Inserts or overwrites. Returns true when the key was new.
  bool Put(std::uint64_t key, std::string value);

  bool Get(std::uint64_t key, std::string* out);

  bool Erase(std::uint64_t key);

  // Range count in [first, last] (a short scan transaction). With multiple
  // shards the range is counted per partition (keys are hash-scattered, so
  // every shard can hold part of the range).
  std::size_t CountRange(std::uint64_t first, std::uint64_t last);

  std::size_t Size();

  // Structural check (tests): takes each shard lock, verifies its tree.
  bool CheckInvariants();

  std::size_t shard_count() const { return shards_.shard_count(); }

 private:
  ShardedMap<BPlusTree> shards_;
};

}  // namespace lockin

#endif  // SRC_SYSTEMS_KVSTORE_HPP_
