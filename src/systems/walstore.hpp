// RocksDB-style embedded store: memtable + write-ahead-log with a batched
// write queue.
//
// Reproduces the synchronization skeleton the paper describes for RocksDB
// (section 6): "RocksDB employs a write queue where threads enqueue their
// operations and mostly relies on a conditional variable. Therefore,
// altering MUTEX with another algorithm does not make a big difference."
// Writers join a queue under the DB lock; the queue leader takes all
// pending writes as one group and, with the DB lock released, writes them
// to the WAL and memtable while followers wait on the condvar and new
// writers queue up for the next group. Reads go to the memtable under a
// short lock.
//
// The memtable is a ShardedMap, so with more than one shard reads spread
// over per-shard locks instead of one read lock, and the batch leader
// applies each write to its key's shard.
#ifndef SRC_SYSTEMS_WALSTORE_HPP_
#define SRC_SYSTEMS_WALSTORE_HPP_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/locks/condvar.hpp"
#include "src/platform/thread_annotations.hpp"
#include "src/systems/common.hpp"
#include "src/systems/sharded.hpp"
#include "src/systems/wal_log.hpp"

namespace lockin {

class WalStore {
 public:
  // shards = 1 preserves the paper shape.
  explicit WalStore(const LockFactory& make_lock, std::size_t shards = 1)
      : db_lock_(make_lock()), memtable_(make_lock, shards) {}

  // Durable mode (FailSafe): every batched write is additionally appended
  // to a crash-consistent WalLog at `wal_path`, one CRC-checked record per
  // operation; the constructor recovers the file first (truncating any
  // torn tail) and replays the surviving records into the memtable.
  // Appends can throw WalCrashInjected when the WAL failpoints are armed
  // -- the store is then considered dead, like a killed process; reopen a
  // fresh WalStore on the same path to recover.
  WalStore(const LockFactory& make_lock, const std::string& wal_path, std::size_t shards = 1);

  struct RecoveryInfo {
    std::uint64_t records = 0;        // valid records replayed
    std::uint64_t dropped_bytes = 0;  // torn tail removed by recovery
    bool truncated = false;
  };
  // What the durable constructor recovered (zeros for in-memory mode).
  const RecoveryInfo& recovery_info() const { return recovery_info_; }

  WalStore(const WalStore&) = delete;
  WalStore& operator=(const WalStore&) = delete;

  // Enqueues the write; returns once it is durable in the (simulated) WAL
  // and visible in the memtable. May batch with concurrent writers.
  void Put(std::uint64_t key, std::string value);

  bool Get(std::uint64_t key, std::string* out);

  void Delete(std::uint64_t key);

  std::size_t MemtableSize();
  // Quiescent diagnostics: read db-lock-guarded counters without the lock;
  // callers read them after their worker threads joined.
  std::uint64_t wal_records() const LL_NO_THREAD_SAFETY_ANALYSIS { return wal_records_; }
  std::uint64_t batches() const LL_NO_THREAD_SAFETY_ANALYSIS { return batches_; }

 private:
  using Memtable = std::map<std::uint64_t, std::string>;

  struct WriteRequest {
    std::uint64_t key;
    std::string value;
    bool is_delete = false;
    std::uint64_t sequence = 0;  // assigned when enqueued
    bool done = false;
  };

  // Enqueues *req and returns once a batch (maybe its own) has applied it.
  void Write(WriteRequest* req);

  // Commits all queued writes as one group (leader path). Called and
  // returns with db_lock_ held; releases it while committing.
  void RunBatch() LL_REQUIRES(*db_lock_);

  void ApplyToMemtable(std::uint64_t key, std::string&& value, bool is_delete);

  std::unique_ptr<LockHandle> db_lock_;
  CondVar queue_cv_;
  std::deque<WriteRequest*> queue_ LL_GUARDED_BY(*db_lock_);
  bool batch_running_ LL_GUARDED_BY(*db_lock_) = false;
  std::uint64_t next_sequence_ LL_GUARDED_BY(*db_lock_) = 1;
  std::uint64_t wal_records_ LL_GUARDED_BY(*db_lock_) = 0;
  std::uint64_t batches_ LL_GUARDED_BY(*db_lock_) = 0;
  std::vector<std::string> wal_ LL_GUARDED_BY(*db_lock_);  // simulated WAL tail (bounded)
  std::unique_ptr<WalLog> wal_log_ LL_GUARDED_BY(*db_lock_);  // durable mode only
  RecoveryInfo recovery_info_;  // written once in the ctor, read-only after

  // Memtable shards guarded by their own short locks so reads do not cross
  // the write queue. The group leader applies writes without db_lock_, and
  // readers take only the shard lock, so no thread holds both.
  ShardedMap<Memtable> memtable_;
};

}  // namespace lockin

#endif  // SRC_SYSTEMS_WALSTORE_HPP_
