#include "src/systems/cache.hpp"

#include <utility>

#include "src/platform/failpoint.hpp"

namespace lockin {
namespace {

constexpr std::size_t kInitialSlots = 16;  // power of two

// Eviction victim sampling width. The old eviction scanned *every* slot for
// the exact-oldest ticket -- O(table) per eviction, which dominated the
// SET-heavy path once the cache ran at capacity (the cache/set-heavy-seglru
// ops/s of `scenario_runner --all --json`). A bounded clock-hand sample is
// memcached's own answer: probe from the cursor until this many live
// entries were seen and evict the oldest of the sample. With >= 2 live
// entries sampled the newest item is never the sample's oldest, so the
// "just-written key stays resident" property the tests pin still holds.
constexpr std::size_t kEvictSample = 8;

std::size_t NextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

MemCache::MemCache(const LockFactory& make_lock, Config config)
    : config_(config),
      shards_(make_lock, ShardOptions{config.shards, config.combine, config.rw}),
      lru_lock_(make_lock()) {
  per_shard_capacity_ = config_.capacity / shards_.shard_count();
  if (per_shard_capacity_ == 0) {
    per_shard_capacity_ = 1;
  }
  for (std::size_t i = 0; i < shards_.shard_count(); ++i) {
    shards_.UnsafeShardAt(i).slots.assign(kInitialSlots, Slot{});
  }
}

const MemCache::Slot* MemCache::FindSlot(const CacheTable& table, std::size_t hash,
                                         std::string_view key) {
  const std::size_t mask = table.slots.size() - 1;
  std::size_t i = hash & mask;
  while (table.slots[i].state != SlotState::kEmpty) {
    const Slot& slot = table.slots[i];
    if (slot.state == SlotState::kFull && slot.hash == hash && slot.key == key) {
      return &slot;
    }
    i = (i + 1) & mask;
  }
  return nullptr;
}

MemCache::Slot* MemCache::FindSlotMut(CacheTable& table, std::size_t hash,
                                      std::string_view key) {
  return const_cast<Slot*>(FindSlot(table, hash, key));
}

void MemCache::GrowTable(CacheTable& table) {
  std::vector<Slot> old = std::move(table.slots);
  table.slots.assign(NextPowerOfTwo(old.size() * 2), Slot{});
  table.occupied = table.used;
  table.evict_cursor = 0;  // cursor indexes the new slot array
  const std::size_t mask = table.slots.size() - 1;
  for (Slot& slot : old) {
    if (slot.state != SlotState::kFull) {
      continue;
    }
    std::size_t i = slot.hash & mask;
    while (table.slots[i].state == SlotState::kFull) {
      i = (i + 1) & mask;
    }
    table.slots[i] = std::move(slot);
  }
}

void MemCache::Upsert(CacheTable& table, std::size_t hash, const std::string& key,
                      std::string&& value, std::uint64_t ticket) {
  // Keep load (full + tombstones) under 3/4 so probes stay short.
  if ((table.occupied + 1) * 4 > table.slots.size() * 3) {
    GrowTable(table);
  }
  const std::size_t mask = table.slots.size() - 1;
  std::size_t i = hash & mask;
  Slot* tombstone = nullptr;
  while (table.slots[i].state != SlotState::kEmpty) {
    Slot& slot = table.slots[i];
    if (slot.state == SlotState::kFull && slot.hash == hash && slot.key == key) {
      slot.value = std::move(value);
      slot.lru_ticket = ticket;
      return;
    }
    if (slot.state == SlotState::kTombstone && tombstone == nullptr) {
      tombstone = &slot;
    }
    i = (i + 1) & mask;
  }
  Slot& target = tombstone != nullptr ? *tombstone : table.slots[i];
  if (tombstone == nullptr) {
    ++table.occupied;  // consumed a fresh empty slot
  }
  target.hash = hash;
  target.state = SlotState::kFull;
  target.lru_ticket = ticket;
  target.key = key;
  target.value = std::move(value);
  ++table.used;
  size_.fetch_add(1, std::memory_order_relaxed);
}

void MemCache::TombstoneSlot(CacheTable& table, Slot& slot) {
  slot.state = SlotState::kTombstone;
  slot.key.clear();
  slot.key.shrink_to_fit();
  slot.value.clear();
  slot.value.shrink_to_fit();
  --table.used;
  size_.fetch_sub(1, std::memory_order_relaxed);
}

void MemCache::EvictOneFrom(CacheTable& table) {
  // FailSafe: delay-only site. Stalling inside the eviction scan (shard
  // lock held) widens the window other shards race against; a true "fail"
  // here would break the capacity invariant, so the fired flag is ignored.
  (void)FailpointFired(FailpointId::kCacheEvict);
  // Sampled LRU (memcached-style): advance the clock hand until
  // kEvictSample live entries were seen (or the table wrapped) and evict
  // the oldest of the sample. The stored hashes/tickets are reused -- no
  // key is rehashed while picking a victim.
  const std::size_t n = table.slots.size();
  const std::size_t mask = n - 1;
  Slot* victim = nullptr;
  std::uint64_t oldest = ~0ULL;
  std::size_t sampled = 0;
  table.evict_cursor &= mask;
  for (std::size_t probed = 0; probed < n && sampled < kEvictSample; ++probed) {
    Slot& slot = table.slots[table.evict_cursor];
    table.evict_cursor = (table.evict_cursor + 1) & mask;
    if (slot.state != SlotState::kFull) {
      continue;
    }
    ++sampled;
    if (slot.lru_ticket < oldest) {
      oldest = slot.lru_ticket;
      victim = &slot;
    }
  }
  if (victim == nullptr) {
    return;
  }
  TombstoneSlot(table, *victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

void MemCache::EvictIfNeededGlobal() {
  // Called with lru_lock_ held; the victim-shard cursor round-robins with
  // the global LRU clock, as before the ShardedMap rework.
  if (size_.load(std::memory_order_relaxed) <= config_.capacity) {
    return;
  }
  const std::size_t victim = lru_clock_ % shards_.shard_count();
  shards_.WithShardAt(victim, [this](CacheTable& table) { EvictOneFrom(table); });
}

void MemCache::Set(const std::string& key, std::string value) {
  const std::size_t hash = HashKey(key);
  if (config_.lru_mode == LruMode::kGlobalLock) {
    // Every SET crosses the global LRU lock -- the contention point the
    // paper's SET-heavy Memcached workload exposes.
    HandleGuard lru_guard(*lru_lock_);
    const std::uint64_t ticket = ++lru_clock_;
    shards_.WithShard(hash, [&](CacheTable& table) {
      Upsert(table, hash, key, std::move(value), ticket);
    });
    EvictIfNeededGlobal();
    return;
  }
  // kPerShard: the shard lock covers the ticket, the write and the
  // eviction; no SET ever touches a cross-shard line.
  shards_.WithShard(hash, [&](CacheTable& table) {
    const std::uint64_t ticket = ++table.lru_clock;
    Upsert(table, hash, key, std::move(value), ticket);
    while (table.used > per_shard_capacity_) {
      EvictOneFrom(table);
    }
  });
}

bool MemCache::Get(const std::string& key, std::string* out) {
  const std::size_t hash = HashKey(key);
  return shards_.WithShardShared(hash, [&](const CacheTable& table) {
    const Slot* slot = FindSlot(table, hash, key);
    if (slot == nullptr) {
      return false;
    }
    if (out != nullptr) {
      *out = slot->value;
    }
    return true;
  });
}

bool MemCache::Delete(const std::string& key) {
  const std::size_t hash = HashKey(key);
  return shards_.WithShard(hash, [&](CacheTable& table) {
    Slot* slot = FindSlotMut(table, hash, key);
    if (slot == nullptr) {
      return false;
    }
    TombstoneSlot(table, *slot);
    return true;
  });
}

std::size_t MemCache::Size() const { return size_.load(std::memory_order_relaxed); }

}  // namespace lockin
