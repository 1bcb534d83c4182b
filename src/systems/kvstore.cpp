#include "src/systems/kvstore.hpp"

namespace lockin {

bool KvStore::Put(std::uint64_t key, std::string value) {
  HandleGuard guard(*lock_);
  return tree_.Put(key, std::move(value));
}

bool KvStore::Get(std::uint64_t key, std::string* out) {
  HandleGuard guard(*lock_);
  return tree_.Get(key, out);
}

bool KvStore::Erase(std::uint64_t key) {
  HandleGuard guard(*lock_);
  return tree_.Erase(key);
}

std::size_t KvStore::CountRange(std::uint64_t first, std::uint64_t last) {
  std::size_t count = 0;
  HandleGuard guard(*lock_);
  tree_.Scan(first, last, [&count](std::uint64_t, const std::string&) {
    ++count;
    return true;
  });
  return count;
}

std::size_t KvStore::Size() {
  HandleGuard guard(*lock_);
  return tree_.size();
}

bool KvStore::CheckInvariants() {
  HandleGuard guard(*lock_);
  return tree_.CheckInvariants();
}

}  // namespace lockin
