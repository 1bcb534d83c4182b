#include "src/systems/walstore.hpp"

#include <cstdlib>
#include <utility>

#include "src/platform/failpoint.hpp"

namespace lockin {

WalStore::WalStore(const LockFactory& make_lock, const std::string& wal_path)
    : db_lock_(make_lock()), memtable_lock_(make_lock()) {
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
  HandleGuard guard(*memtable_lock_);
  if (is_delete) {
    memtable_.erase(key);
  } else {
    memtable_[key] = std::move(value);
  }
}

void WalStore::RunBatch() {
  // Leader: take every queued write as one group, then commit it with
  // db_lock_ released, so writers that arrive meanwhile queue behind
  // batch_running_ and form the next group. Groups are committed one at a
  // time, in sequence order; the WAL tail is bounded (compaction is out of
  // scope for the synchronization skeleton).
  batch_running_ = true;
  std::vector<WriteRequest*> group(queue_.begin(), queue_.end());
  queue_.clear();
  // The leader uses the durable WalLog without db_lock_: wal_log_ is set
  // once, in the constructor, and batch_running_ admits one leader at a
  // time, so no other thread touches the log until this group is done.
  WalLog* const wal_log = wal_log_.get();
  db_lock_->unlock();

  // FailSafe: delay-only site inside the group-commit leader; stalling
  // here (db lock free, new writers queueing behind batch_running_) widens
  // the group and the leader-election race at its end.
  (void)FailpointFired(FailpointId::kWalStoreBatch);

  // Durable mode: one crash-consistent record per op, appended before any
  // in-memory state is touched. A WAL failpoint crash propagates out with
  // nothing applied beyond what the file holds -- exactly what Recover()
  // sees after a real mid-write kill -- and leaves the store dead:
  // batch_running_ stays set, so no later writer returns.
  if (wal_log != nullptr) {
    for (WriteRequest* req : group) {
      std::string record;
      record += req->is_delete ? 'D' : 'P';
      record += ' ';
      record += std::to_string(req->key);
      if (!req->is_delete) {
        record += ' ';
        record += req->value;
      }
      wal_log->Append(record);
    }
  }

  // The simulated WAL entry for the group (RocksDB's write thread writes
  // the group's WAL record outside the DB mutex too).
  std::string wal_entry;
  for (WriteRequest* req : group) {
    wal_entry += std::to_string(req->sequence);
    wal_entry += req->is_delete ? ":D:" : ":P:";
    wal_entry += std::to_string(req->key);
    wal_entry += ';';
  }

  // Apply in sequence order; each write takes only the memtable lock, and
  // readers never take db_lock_.
  for (WriteRequest* req : group) {
    ApplyToMemtable(req->key, std::move(req->value), req->is_delete);
  }

  db_lock_->lock();
  wal_.push_back(std::move(wal_entry));
  if (wal_.size() > 1024) {
    wal_.erase(wal_.begin(), wal_.begin() + 512);
  }
  wal_records_ += group.size();
  ++batches_;
  for (WriteRequest* req : group) {
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
  // Followers wait until a leader finishes their group; a writer that
  // finds no group running -- on arrival or when woken with its request
  // still queued -- leads the next one, which includes its own request.
  while (!req->done) {
    if (!batch_running_) {
      RunBatch();
      break;
    }
    queue_cv_.Wait(*db_lock_);
  }
  db_lock_->unlock();
}

bool WalStore::Get(std::uint64_t key, std::string* out) {
  HandleGuard guard(*memtable_lock_);
  const auto it = memtable_.find(key);
  if (it == memtable_.end()) {
    return false;
  }
  if (out != nullptr) {
    *out = it->second;
  }
  return true;
}

std::size_t WalStore::MemtableSize() {
  HandleGuard guard(*memtable_lock_);
  return memtable_.size();
}

}  // namespace lockin
