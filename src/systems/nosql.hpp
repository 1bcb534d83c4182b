// Kyoto Cabinet-style NoSQL store with three database backends.
//
// The paper stresses Kyoto's CACHE (in-memory hash with whole-DB locking),
// HT DB (hash database), and B-TREE versions (Table 3). The shared trait
// the paper exploits: Kyoto serializes most operations behind very few
// locks with *short* critical sections, which is why swapping MUTEX out
// produces the paper's largest wins (1.5-1.85x, Figures 13-14).
//
// All three backends sit on the same ShardedMap router. CACHE and B-TREE
// default to one shard (whole-DB locking, the paper shape); HT keeps its 8
// bucket regions as 8 shards. The shard count is the one scale input.
#ifndef SRC_SYSTEMS_NOSQL_HPP_
#define SRC_SYSTEMS_NOSQL_HPP_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/systems/btree.hpp"
#include "src/systems/common.hpp"
#include "src/systems/sharded.hpp"

namespace lockin {

// Common record interface over the three backends.
class NosqlDb {
 public:
  virtual ~NosqlDb() = default;

  virtual void Set(std::uint64_t key, std::string value) = 0;
  virtual bool Get(std::uint64_t key, std::string* out) = 0;
  virtual bool Remove(std::uint64_t key) = 0;
  // Read-modify-write: appends to the record (Kyoto's `append`).
  virtual void Append(std::uint64_t key, const std::string& suffix) = 0;
  virtual std::size_t Count() = 0;

  virtual const char* backend() const = 0;
};

// CACHE: hash map(s) behind whole-DB locking (one shard by default).
class CacheDb final : public NosqlDb {
 public:
  explicit CacheDb(const LockFactory& make_lock, std::size_t shards = 1)
      : shards_(make_lock, shards) {}

  void Set(std::uint64_t key, std::string value) override;
  bool Get(std::uint64_t key, std::string* out) override;
  bool Remove(std::uint64_t key) override;
  void Append(std::uint64_t key, const std::string& suffix) override;
  std::size_t Count() override;
  const char* backend() const override { return "CACHE"; }

 private:
  using Map = std::unordered_map<std::uint64_t, std::string>;
  ShardedMap<Map> shards_;
};

// HT DB: hash database with a small number of bucket-region locks (Kyoto
// uses 8-ish mutexes over bucket regions) -- i.e. 8 shards by default.
class HashDb final : public NosqlDb {
 public:
  explicit HashDb(const LockFactory& make_lock, std::size_t shards = 8)
      : shards_(make_lock, shards) {}

  void Set(std::uint64_t key, std::string value) override;
  bool Get(std::uint64_t key, std::string* out) override;
  bool Remove(std::uint64_t key) override;
  void Append(std::uint64_t key, const std::string& suffix) override;
  std::size_t Count() override;
  const char* backend() const override { return "HT"; }

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
  const char* backend() const override { return "B-TREE"; }

 private:
  ShardedMap<BPlusTree> shards_;
};

}  // namespace lockin

#endif  // SRC_SYSTEMS_NOSQL_HPP_
