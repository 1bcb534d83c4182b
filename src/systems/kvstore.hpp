// HamsterDB-style embedded key-value store.
//
// Single B+-tree environment guarded by one coarse database lock -- the
// synchronization skeleton of the paper's HamsterDB target (4 worker
// threads hammering one DB lock; Table 3). Operation mix knobs reproduce
// the WT / WT/RD / RD configurations.
#ifndef SRC_SYSTEMS_KVSTORE_HPP_
#define SRC_SYSTEMS_KVSTORE_HPP_

#include <cstdint>
#include <memory>
#include <string>

#include "src/platform/cacheline.hpp"
#include "src/platform/thread_annotations.hpp"
#include "src/systems/btree.hpp"
#include "src/systems/common.hpp"

namespace lockin {

class KvStore {
 public:
  explicit KvStore(const LockFactory& make_lock) : lock_(make_lock()) {}

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Inserts or overwrites. Returns true when the key was new.
  bool Put(std::uint64_t key, std::string value);

  bool Get(std::uint64_t key, std::string* out);

  bool Erase(std::uint64_t key);

  // Range count in [first, last] (a short scan transaction).
  std::size_t CountRange(std::uint64_t first, std::uint64_t last);

  std::size_t Size();

  // Structural check (tests): takes the DB lock, verifies the tree.
  bool CheckInvariants();

 private:
  std::unique_ptr<LockHandle> lock_;
  // Own line pair: arriving threads read `lock_` while the holder writes the tree header.
  alignas(kContendedPad) BPlusTree tree_ LL_GUARDED_BY(*lock_);
};

}  // namespace lockin

#endif  // SRC_SYSTEMS_KVSTORE_HPP_
