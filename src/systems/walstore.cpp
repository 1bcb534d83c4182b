#include "src/systems/walstore.hpp"

#include <cstdlib>
#include <utility>

#include "src/platform/failpoint.hpp"

namespace lockin {

WalStore::WalStore(const LockFactory& make_lock, const std::string& wal_path, std::size_t shards)
    : db_lock_(make_lock()), memtable_(make_lock, shards) {
  auto log = std::make_unique<WalLog>(wal_path);
  std::vector<std::string> records;
  const WalLog::RecoverResult recovered = log->Recover(&records);
  recovery_info_.records = recovered.valid_records;
  recovery_info_.dropped_bytes = recovered.dropped_bytes;
  recovery_info_.truncated = recovered.truncated;
  // Replay the surviving records in order. Record format (one op each):
  // "P <key> <value>" / "D <key>".
  for (const std::string& record : records) {
    if (record.size() < 3 || record[1] != ' ') {
      continue;  // unknown record shape; recovery is best-effort
    }
    const std::size_t key_end = record.find(' ', 2);
    const std::uint64_t key = std::strtoull(record.c_str() + 2, nullptr, 10);
    if (record[0] == 'D') {
      ApplyToMemtable(key, std::string(), true);
    } else if (record[0] == 'P' && key_end != std::string::npos) {
      ApplyToMemtable(key, record.substr(key_end + 1), false);
    }
  }
  HandleGuard db_guard(*db_lock_);
  wal_log_ = std::move(log);
}

void WalStore::ApplyToMemtable(std::uint64_t key, std::string&& value, bool is_delete) {
  memtable_.WithShard(ShardedMap<Memtable>::MixHash(key), [&](Memtable& memtable) {
    if (is_delete) {
      memtable.erase(key);
    } else {
      memtable[key] = std::move(value);
    }
  });
}

void WalStore::RunBatchLocked() {
  // Leader: drain the queue into one WAL append + memtable apply. Writes
  // are applied in sequence order; the WAL tail is bounded (compaction is
  // out of scope for the synchronization skeleton).
  batch_running_ = true;
  std::vector<WriteRequest*> batch(queue_.begin(), queue_.end());
  queue_.clear();

  // FailSafe: delay-only site inside the group-commit leader; stalling
  // here (db lock held, followers parked on the condvar) widens the
  // leader-election and queue-join races.
  (void)FailpointFired(FailpointId::kWalStoreBatch);

  // Durable mode: one crash-consistent record per op, appended before any
  // in-memory state is touched. A WAL failpoint crash propagates out with
  // nothing applied beyond what the file holds -- exactly what Recover()
  // sees after a real mid-write kill.
  if (wal_log_ != nullptr) {
    for (WriteRequest* req : batch) {
      std::string record;
      record += req->is_delete ? 'D' : 'P';
      record += ' ';
      record += std::to_string(req->key);
      if (!req->is_delete) {
        record += ' ';
        record += req->value;
      }
      wal_log_->Append(record);
    }
  }

  // Simulate the WAL append outside the read path but under the DB lock
  // (RocksDB's write thread does the same for the group).
  std::string wal_entry;
  for (WriteRequest* req : batch) {
    wal_entry += std::to_string(req->sequence);
    wal_entry += req->is_delete ? ":D:" : ":P:";
    wal_entry += std::to_string(req->key);
    wal_entry += ';';
  }
  wal_.push_back(std::move(wal_entry));
  if (wal_.size() > 1024) {
    wal_.erase(wal_.begin(), wal_.begin() + 512);
  }
  wal_records_ += batch.size();
  ++batches_;

  // Apply in sequence order; each write takes only its key's shard lock
  // (db_lock_ -> shard lock, readers never take db_lock_, so acyclic).
  for (WriteRequest* req : batch) {
    ApplyToMemtable(req->key, std::move(req->value), req->is_delete);
  }
  for (WriteRequest* req : batch) {
    req->done = true;
  }
  batch_running_ = false;
  queue_cv_.Broadcast();
}

void WalStore::Put(std::uint64_t key, std::string value) {
  WriteRequest req;
  req.key = key;
  req.value = std::move(value);
  Write(&req);
}

void WalStore::Delete(std::uint64_t key) {
  WriteRequest req;
  req.key = key;
  req.is_delete = true;
  Write(&req);
}

void WalStore::Write(WriteRequest* req) {
  db_lock_->lock();
  req->sequence = next_sequence_++;
  queue_.push_back(req);
  // Followers wait until a leader finishes their batch; whichever queued
  // writer finds no batch running leads the next one (a queued, unfinished
  // request keeps queue_ non-empty).
  while (!req->done) {
    if (!batch_running_) {
      RunBatchLocked();
      break;
    }
    queue_cv_.Wait(*db_lock_);
  }
  db_lock_->unlock();
}

bool WalStore::Get(std::uint64_t key, std::string* out) {
  return memtable_.WithShard(ShardedMap<Memtable>::MixHash(key), [&](const Memtable& memtable) {
    const auto it = memtable.find(key);
    if (it == memtable.end()) {
      return false;
    }
    if (out != nullptr) {
      *out = it->second;
    }
    return true;
  });
}

std::size_t WalStore::MemtableSize() {
  std::size_t total = 0;
  memtable_.ForEachShard([&total](Memtable& memtable) { total += memtable.size(); });
  return total;
}

}  // namespace lockin
