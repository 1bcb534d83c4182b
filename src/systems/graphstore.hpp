// MySQL/LinkBench-style social-graph store.
//
// The paper drives MySQL with Facebook's LinkBench (Table 3): a node/link
// graph with point reads, link-list reads and link writes from many
// connection threads. The synchronization skeleton mirrored here: sharded
// row locks (InnoDB-style), plus one log lock every write crosses (binlog/
// redo). MySQL "handles most low-level synchronization with customly-
// designed locks", so the pthread-lock swap moves less than elsewhere --
// unless the lock spins while oversubscribed (the TICKET collapse).
//
// The row shards are a ShardedMap (routing is id % shards, matching
// InnoDB's hash-on-row-id); the log lock stays single, the one lock every
// write funnels through.
#ifndef SRC_SYSTEMS_GRAPHSTORE_HPP_
#define SRC_SYSTEMS_GRAPHSTORE_HPP_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/platform/cacheline.hpp"
#include "src/platform/thread_annotations.hpp"
#include "src/systems/common.hpp"
#include "src/systems/sharded.hpp"

namespace lockin {

class GraphStore {
 public:
  explicit GraphStore(const LockFactory& make_lock, std::size_t shards = 32);

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  // Nodes.
  std::uint64_t AddNode(std::string payload);
  bool GetNode(std::uint64_t id, std::string* out);
  bool UpdateNode(std::uint64_t id, std::string payload);

  // Links (edges): (source, type) -> set of destinations.
  void AddLink(std::uint64_t source, int type, std::uint64_t dest);
  bool DeleteLink(std::uint64_t source, int type, std::uint64_t dest);
  // Returns up to `limit` destinations.
  std::vector<std::uint64_t> GetLinkList(std::uint64_t source, int type, std::size_t limit);
  std::size_t CountLinks(std::uint64_t source, int type);

  // Quiescent diagnostic: reads the log-lock-guarded counter without the
  // lock; callers read it after their worker threads joined.
  std::uint64_t log_records() const LL_NO_THREAD_SAFETY_ANALYSIS { return log_records_; }

 private:
  // One row shard: node payloads plus the adjacency lists rooted there.
  struct GraphShard {
    std::unordered_map<std::uint64_t, std::string> nodes;
    std::map<std::pair<std::uint64_t, int>, std::vector<std::uint64_t>> links;
  };

  void AppendLog(char op, std::uint64_t id);

  ShardedMap<GraphShard> shards_;
  // The log lock every write crosses (binlog group-commit point).
  std::unique_ptr<LockHandle> log_lock_;
  // Own line: ops read shards_ and log_lock_ while the log holder writes this.
  alignas(kCacheLineSize) std::uint64_t log_records_ LL_GUARDED_BY(*log_lock_) = 0;
  std::unique_ptr<LockHandle> id_lock_;
  std::uint64_t next_node_id_ LL_GUARDED_BY(*id_lock_) = 1;
};

}  // namespace lockin

#endif  // SRC_SYSTEMS_GRAPHSTORE_HPP_
