#include "src/systems/nosql.hpp"

namespace lockin {

// --- HashDb ----------------------------------------------------------------

void HashDb::Set(std::uint64_t key, std::string value) {
  shards_.WithShard(ShardedMap<Map>::MixHash(key), [&](Map& map) { map[key] = std::move(value); });
}

bool HashDb::Get(std::uint64_t key, std::string* out) {
  return shards_.WithShard(ShardedMap<Map>::MixHash(key), [&](const Map& map) {
    const auto it = map.find(key);
    if (it == map.end()) {
      return false;
    }
    if (out != nullptr) {
      *out = it->second;
    }
    return true;
  });
}

bool HashDb::Remove(std::uint64_t key) {
  return shards_.WithShard(ShardedMap<Map>::MixHash(key),
                           [&](Map& map) { return map.erase(key) != 0; });
}

void HashDb::Append(std::uint64_t key, const std::string& suffix) {
  shards_.WithShard(ShardedMap<Map>::MixHash(key), [&](Map& map) { map[key] += suffix; });
}

std::size_t HashDb::Count() {
  std::size_t total = 0;
  shards_.ForEachShard([&total](Map& map) { total += map.size(); });
  return total;
}

// --- TreeDb ----------------------------------------------------------------

void TreeDb::Set(std::uint64_t key, std::string value) {
  shards_.WithShard(ShardedMap<BPlusTree>::MixHash(key),
                    [&](BPlusTree& tree) { tree.Put(key, std::move(value)); });
}

bool TreeDb::Get(std::uint64_t key, std::string* out) {
  return shards_.WithShard(ShardedMap<BPlusTree>::MixHash(key),
                           [&](const BPlusTree& tree) { return tree.Get(key, out); });
}

bool TreeDb::Remove(std::uint64_t key) {
  return shards_.WithShard(ShardedMap<BPlusTree>::MixHash(key),
                           [&](BPlusTree& tree) { return tree.Erase(key); });
}

void TreeDb::Append(std::uint64_t key, const std::string& suffix) {
  shards_.WithShard(ShardedMap<BPlusTree>::MixHash(key), [&](BPlusTree& tree) {
    std::string value;
    tree.Get(key, &value);
    value += suffix;
    tree.Put(key, std::move(value));
  });
}

std::size_t TreeDb::Count() {
  std::size_t total = 0;
  shards_.ForEachShard([&total](BPlusTree& tree) { total += tree.size(); });
  return total;
}

}  // namespace lockin
