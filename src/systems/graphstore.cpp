#include "src/systems/graphstore.hpp"

#include <algorithm>

namespace lockin {

GraphStore::GraphStore(const LockFactory& make_lock, std::size_t shards)
    : shards_(make_lock, shards),
      log_lock_(make_lock()),
      id_lock_(make_lock()) {}

void GraphStore::AppendLog(char op, std::uint64_t id) {
  // The real binlog formats and fsyncs here; the contention point is what
  // matters for the lock study.
  (void)op;
  (void)id;
  HandleGuard guard(*log_lock_);
  ++log_records_;
}

std::uint64_t GraphStore::AddNode(std::string payload) {
  std::uint64_t id;
  {
    HandleGuard guard(*id_lock_);
    id = next_node_id_++;
  }
  // Routing is id-based (id % shards), the InnoDB row-hash shape; graph ids
  // are allocated densely so no extra mixing is needed.
  shards_.WithShard(id, [&](GraphShard& shard) { shard.nodes.emplace(id, std::move(payload)); });
  AppendLog('N', id);
  return id;
}

bool GraphStore::GetNode(std::uint64_t id, std::string* out) {
  return shards_.WithShard(id, [&](const GraphShard& shard) {
    const auto it = shard.nodes.find(id);
    if (it == shard.nodes.end()) {
      return false;
    }
    if (out != nullptr) {
      *out = it->second;
    }
    return true;
  });
}

bool GraphStore::UpdateNode(std::uint64_t id, std::string payload) {
  const bool updated = shards_.WithShard(id, [&](GraphShard& shard) {
    const auto it = shard.nodes.find(id);
    if (it == shard.nodes.end()) {
      return false;
    }
    it->second = std::move(payload);
    return true;
  });
  if (updated) {
    AppendLog('U', id);
  }
  return updated;
}

void GraphStore::AddLink(std::uint64_t source, int type, std::uint64_t dest) {
  shards_.WithShard(source, [&](GraphShard& shard) {
    std::vector<std::uint64_t>& list = shard.links[{source, type}];
    if (std::find(list.begin(), list.end(), dest) == list.end()) {
      list.push_back(dest);
    }
  });
  AppendLog('L', source);
}

bool GraphStore::DeleteLink(std::uint64_t source, int type, std::uint64_t dest) {
  const bool removed = shards_.WithShard(source, [&](GraphShard& shard) {
    const auto it = shard.links.find({source, type});
    if (it == shard.links.end()) {
      return false;
    }
    auto& list = it->second;
    const auto pos = std::find(list.begin(), list.end(), dest);
    if (pos == list.end()) {
      return false;
    }
    list.erase(pos);
    return true;
  });
  if (removed) {
    AppendLog('D', source);
  }
  return removed;
}

std::vector<std::uint64_t> GraphStore::GetLinkList(std::uint64_t source, int type,
                                                   std::size_t limit) {
  return shards_.WithShard(source, [&](const GraphShard& shard) {
    const auto it = shard.links.find({source, type});
    if (it == shard.links.end()) {
      return std::vector<std::uint64_t>{};
    }
    const auto& list = it->second;
    const std::size_t n = std::min(limit, list.size());
    return std::vector<std::uint64_t>(list.end() - static_cast<std::ptrdiff_t>(n), list.end());
  });
}

std::size_t GraphStore::CountLinks(std::uint64_t source, int type) {
  return shards_.WithShard(source, [&](const GraphShard& shard) {
    const auto it = shard.links.find({source, type});
    return it == shard.links.end() ? std::size_t{0} : it->second.size();
  });
}

}  // namespace lockin
