// Kyoto Cabinet-style NoSQL store with three database backends.
//
// The paper stresses Kyoto's CACHE (in-memory hash with whole-DB locking),
// HT DB (hash database), and B-TREE versions (Table 3). The shared trait
// the paper exploits: Kyoto serializes most operations behind very few
// locks with *short* critical sections, which is why swapping MUTEX out
// produces the paper's largest wins (1.5-1.85x, Figures 13-14).
//
// Two classes serve the three backends, all on the same ShardedMap router.
// CACHE and HT share one hash-map class and differ only in shard count:
// CACHE is one shard (whole-DB locking, the paper shape), HT keeps its 8
// bucket regions as 8 shards. B-TREE defaults to one shard. The shard
// count is the one scale input.
#ifndef SRC_SYSTEMS_NOSQL_HPP_
#define SRC_SYSTEMS_NOSQL_HPP_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/systems/btree.hpp"
#include "src/systems/common.hpp"
#include "src/systems/sharded.hpp"

namespace lockin {

// Common record interface over the backends.
class NosqlDb {
 public:
  virtual ~NosqlDb() = default;

  virtual void Set(std::uint64_t key, std::string value) = 0;
  virtual bool Get(std::uint64_t key, std::string* out) = 0;
  virtual bool Remove(std::uint64_t key) = 0;
  // Read-modify-write: appends to the record (Kyoto's `append`).
  virtual void Append(std::uint64_t key, const std::string& suffix) = 0;
  virtual std::size_t Count() = 0;
};

// Hash maps behind `shards` locks: Kyoto's CACHE with 1 shard (whole-DB
// locking), its HT DB with 8 (Kyoto uses 8-ish mutexes over bucket
// regions).
class HashDb final : public NosqlDb {
 public:
  HashDb(const LockFactory& make_lock, std::size_t shards) : shards_(make_lock, shards) {}

  void Set(std::uint64_t key, std::string value) override;
  bool Get(std::uint64_t key, std::string* out) override;
  bool Remove(std::uint64_t key) override;
  void Append(std::uint64_t key, const std::string& suffix) override;
  std::size_t Count() override;

 private:
  using Map = std::unordered_map<std::uint64_t, std::string>;
  ShardedMap<Map> shards_;
};

// B-TREE: B+-tree partitions behind whole-DB locking by default (Kyoto's
// TreeDB serializes through one mutex protecting its page cache).
class TreeDb final : public NosqlDb {
 public:
  explicit TreeDb(const LockFactory& make_lock, std::size_t shards = 1)
      : shards_(make_lock, shards) {}

  void Set(std::uint64_t key, std::string value) override;
  bool Get(std::uint64_t key, std::string* out) override;
  bool Remove(std::uint64_t key) override;
  void Append(std::uint64_t key, const std::string& suffix) override;
  std::size_t Count() override;

 private:
  ShardedMap<BPlusTree> shards_;
};

}  // namespace lockin

#endif  // SRC_SYSTEMS_NOSQL_HPP_
