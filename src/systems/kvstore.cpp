#include "src/systems/kvstore.hpp"

namespace lockin {

bool KvStore::Put(std::uint64_t key, std::string value) {
  return shards_.WithShard(ShardedMap<BPlusTree>::MixHash(key), [&](BPlusTree& tree) {
    return tree.Put(key, std::move(value));
  });
}

bool KvStore::Get(std::uint64_t key, std::string* out) {
  return shards_.WithShard(ShardedMap<BPlusTree>::MixHash(key),
                           [&](const BPlusTree& tree) { return tree.Get(key, out); });
}

bool KvStore::Erase(std::uint64_t key) {
  return shards_.WithShard(ShardedMap<BPlusTree>::MixHash(key),
                           [&](BPlusTree& tree) { return tree.Erase(key); });
}

std::size_t KvStore::CountRange(std::uint64_t first, std::uint64_t last) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < shards_.shard_count(); ++i) {
    shards_.WithShardAt(i, [&](const BPlusTree& tree) {
      tree.Scan(first, last, [&count](std::uint64_t, const std::string&) {
        ++count;
        return true;
      });
    });
  }
  return count;
}

std::size_t KvStore::Size() {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.shard_count(); ++i) {
    total += shards_.WithShardAt(i, [](const BPlusTree& tree) { return tree.size(); });
  }
  return total;
}

bool KvStore::CheckInvariants() {
  bool ok = true;
  for (std::size_t i = 0; i < shards_.shard_count(); ++i) {
    ok = shards_.WithShardAt(i, [](const BPlusTree& tree) { return tree.CheckInvariants(); }) &&
         ok;
  }
  return ok;
}

}  // namespace lockin
