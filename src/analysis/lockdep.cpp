#include "src/analysis/lockdep.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

namespace lockin {

// Defined here (declared in trace.hpp) so TraceEmit's guard needs no
// include of this header.
std::atomic<bool> g_lockdep_enabled{false};

namespace {

constexpr std::uint32_t kMaxHeld = 32;        // per-thread held-stack depth
constexpr std::uint32_t kEdgeCapacity = 4096; // power of two
constexpr std::uint32_t kMaxProbe = 128;      // open-addressing probe cap
constexpr std::uint32_t kMaxReports = 64;
constexpr std::uint32_t kMaxNamedSites = 512;
constexpr std::uint32_t kHeldSlotPool = 256;  // concurrent traced threads

// The per-thread stack of currently-held acquisition sites. Slots live in
// a global pool so a *foreign* thread (the FailSafe stall watchdog) can
// snapshot what a wedged worker holds: the owner is the only writer, the
// fields are relaxed/acquire-release atomics, and a thread claims a slot
// on first use and returns it at thread exit -- no dangling TLS pointers.
// The generation tag lets LockdepReset() invalidate every stack lazily.
struct HeldSlot {
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint32_t> depth{0};
  std::atomic<std::uint32_t> sites[kMaxHeld]{};
  std::atomic<bool> in_use{false};
};

HeldSlot g_held_slots[kHeldSlotPool];

std::atomic<std::uint64_t> g_generation{1};

// Claims a pool slot for the thread's lifetime; threads beyond the pool
// fall back to a private slot the watchdog cannot see (the checks still
// run, only the cross-thread dump loses them).
struct SlotHolder {
  HeldSlot* slot = nullptr;
  HeldSlot fallback;

  SlotHolder() {
    for (HeldSlot& candidate : g_held_slots) {
      bool expected = false;
      if (candidate.in_use.compare_exchange_strong(expected, true,
                                                   std::memory_order_acq_rel)) {
        candidate.depth.store(0, std::memory_order_relaxed);
        candidate.generation.store(g_generation.load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
        slot = &candidate;
        return;
      }
    }
  }

  ~SlotHolder() {
    if (slot != nullptr) {
      slot->depth.store(0, std::memory_order_relaxed);
      slot->in_use.store(false, std::memory_order_release);
    }
  }
};

thread_local SlotHolder tls_slot_holder;

// The acquisition graph: a fixed open-addressed set of packed
// (from << 32 | to) keys. Site ids start at 1 (NextTraceSiteId), so 0 is
// a free slot. Insertion is lock-free (one CAS on the hot miss path);
// slots are never erased except by LockdepReset.
std::atomic<std::uint64_t> g_edges[kEdgeCapacity];

struct Counters {
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> edges{0};
  std::atomic<std::uint64_t> edge_table_drops{0};
  std::atomic<std::uint64_t> cycles{0};
  std::atomic<std::uint64_t> self_deadlocks{0};
  std::atomic<std::uint64_t> unlock_unheld{0};
  std::atomic<std::uint64_t> held_stack_overflows{0};
  std::atomic<std::uint64_t> sleeps_while_holding{0};
};

Counters g_counters;

// Reports, site names, and the (cold) cycle analysis share one mutex:
// every path that takes it runs at most once per distinct edge/violation.
std::mutex g_report_mu;
LockdepReport g_reports[kMaxReports];
std::uint32_t g_report_count = 0;

char g_site_names[kMaxNamedSites][32];

std::uint64_t MixKey(std::uint64_t key) {
  // splitmix64 finalizer: full avalanche so sequential site ids spread.
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebull;
  key ^= key >> 31;
  return key;
}

enum class EdgeInsert { kNew, kExisting, kTableFull };

EdgeInsert InsertEdge(std::uint32_t from, std::uint32_t to) {
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  const std::uint64_t hash = MixKey(key);
  for (std::uint32_t probe = 0; probe < kMaxProbe; ++probe) {
    std::atomic<std::uint64_t>& slot = g_edges[(hash + probe) & (kEdgeCapacity - 1)];
    std::uint64_t current = slot.load(std::memory_order_relaxed);
    if (current == key) {
      return EdgeInsert::kExisting;
    }
    if (current == 0) {
      if (slot.compare_exchange_strong(current, key, std::memory_order_relaxed)) {
        g_counters.edges.fetch_add(1, std::memory_order_relaxed);
        return EdgeInsert::kNew;
      }
      if (current == key) {  // lost the race to the same edge
        return EdgeInsert::kExisting;
      }
      // Lost to a different key; keep probing.
    }
  }
  g_counters.edge_table_drops.fetch_add(1, std::memory_order_relaxed);
  return EdgeInsert::kTableFull;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> SnapshotEdges() {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(64);
  for (std::uint32_t i = 0; i < kEdgeCapacity; ++i) {
    const std::uint64_t key = g_edges[i].load(std::memory_order_relaxed);
    if (key != 0) {
      edges.emplace_back(static_cast<std::uint32_t>(key >> 32),
                         static_cast<std::uint32_t>(key));
    }
  }
  return edges;
}

// DFS for a path `start -> ... -> target` in the snapshot, bounded by the
// report chain capacity. Fills *path with the nodes from start to target
// inclusive and returns true when found.
bool FindPath(const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
              std::uint32_t start, std::uint32_t target,
              std::vector<std::uint32_t>* path, std::vector<std::uint32_t>* visited) {
  if (path->size() >= LockdepReport::kMaxChain - 1) {
    return false;
  }
  path->push_back(start);
  visited->push_back(start);
  if (start == target) {
    return true;
  }
  for (const auto& [from, to] : edges) {
    if (from != start) {
      continue;
    }
    bool seen = false;
    for (const std::uint32_t v : *visited) {
      if (v == to) {
        seen = true;
        break;
      }
    }
    if (seen && to != target) {
      continue;
    }
    if (FindPath(edges, to, target, path, visited)) {
      return true;
    }
  }
  path->pop_back();
  return false;
}

const char* ViolationLabel(LockdepViolationKind kind) {
  switch (kind) {
    case LockdepViolationKind::kCycle:
      return "lock-order inversion";
    case LockdepViolationKind::kSelfDeadlock:
      return "self-deadlock";
    case LockdepViolationKind::kUnlockUnheld:
      return "unlock of unheld lock";
  }
  return "violation";
}

// Records one report (deduplicating per kind+leading site), mirrors the
// involved sites into the calling thread's trace sink as
// kLockdepViolation instants, and prints the human-readable line. Caller
// holds g_report_mu.
void RecordReportLocked(LockdepViolationKind kind, const std::uint32_t* chain,
                        std::uint32_t chain_len) {
  for (std::uint32_t i = 0; i < g_report_count; ++i) {
    const LockdepReport& existing = g_reports[i];
    if (existing.kind != kind || existing.chain_len != chain_len) {
      continue;
    }
    bool same = true;
    for (std::uint32_t j = 0; j < chain_len && same; ++j) {
      same = existing.chain[j] == chain[j];
    }
    if (same) {
      return;
    }
  }
  switch (kind) {
    case LockdepViolationKind::kCycle:
      g_counters.cycles.fetch_add(1, std::memory_order_relaxed);
      break;
    case LockdepViolationKind::kSelfDeadlock:
      g_counters.self_deadlocks.fetch_add(1, std::memory_order_relaxed);
      break;
    case LockdepViolationKind::kUnlockUnheld:
      g_counters.unlock_unheld.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (g_report_count >= kMaxReports) {
    return;
  }
  LockdepReport& report = g_reports[g_report_count++];
  report.kind = kind;
  report.chain_len = chain_len < LockdepReport::kMaxChain
                         ? chain_len
                         : static_cast<std::uint32_t>(LockdepReport::kMaxChain);
  for (std::uint32_t i = 0; i < report.chain_len; ++i) {
    report.chain[i] = chain[i];
  }
  // Push directly into the sink (not TraceEmit: we are already inside the
  // emit path and must not recurse through the lockdep guard).
  if (TraceBuffer* sink = tls_trace_sink) {
    for (std::uint32_t i = 0; i < report.chain_len; ++i) {
      sink->Emit(TraceEventKind::kLockdepViolation, report.chain[i]);
    }
  }
  std::fprintf(stderr, "lockin lockdep: %s\n", report.Describe().c_str());
}

void ReportCycle(std::uint32_t from, std::uint32_t to) {
  std::lock_guard<std::mutex> guard(g_report_mu);
  // The cycle exists iff the rest of the graph already leads back:
  // to -> ... -> from, closed by the new edge from -> to.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges = SnapshotEdges();
  std::vector<std::uint32_t> path;
  std::vector<std::uint32_t> visited;
  if (!FindPath(edges, to, from, &path, &visited)) {
    return;
  }
  // path runs to -> ... -> from inclusive, so prepending `from` closes the
  // cycle: from -> to -> ... -> from.
  std::uint32_t chain[LockdepReport::kMaxChain];
  std::uint32_t chain_len = 0;
  chain[chain_len++] = from;
  for (const std::uint32_t site : path) {
    if (chain_len >= LockdepReport::kMaxChain) {
      break;
    }
    chain[chain_len++] = site;
  }
  RecordReportLocked(LockdepViolationKind::kCycle, chain, chain_len);
}

void ReportSingleSite(LockdepViolationKind kind, std::uint32_t site) {
  std::lock_guard<std::mutex> guard(g_report_mu);
  const std::uint32_t chain[1] = {site};
  RecordReportLocked(kind, chain, 1);
}

// The calling thread's slot: its pooled one, or the invisible fallback
// when the pool is exhausted. Only the owner writes; all owner accesses
// are relaxed except the depth increment, which releases the pushed site
// to snapshot readers.
HeldSlot& CurrentStack() {
  SlotHolder& holder = tls_slot_holder;
  HeldSlot& slot = holder.slot != nullptr ? *holder.slot : holder.fallback;
  const std::uint64_t generation = g_generation.load(std::memory_order_relaxed);
  if (slot.generation.load(std::memory_order_relaxed) != generation) {
    slot.depth.store(0, std::memory_order_relaxed);
    slot.generation.store(generation, std::memory_order_relaxed);
  }
  return slot;
}

void OnAcquireBegin(std::uint32_t site) {
  HeldSlot& stack = CurrentStack();
  const std::uint32_t depth = stack.depth.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < depth; ++i) {
    if (stack.sites[i].load(std::memory_order_relaxed) == site) {
      ReportSingleSite(LockdepViolationKind::kSelfDeadlock, site);
      return;
    }
  }
  // Acquiring `site` while holding the stack: record every held -> site
  // ordering. Cycle analysis only runs when an edge is genuinely new, so
  // steady-state acquires cost one table probe per held lock.
  for (std::uint32_t i = 0; i < depth; ++i) {
    const std::uint32_t held = stack.sites[i].load(std::memory_order_relaxed);
    if (held == site) {
      continue;
    }
    if (InsertEdge(held, site) == EdgeInsert::kNew) {
      ReportCycle(held, site);
    }
  }
}

void OnAcquired(std::uint32_t site) {
  HeldSlot& stack = CurrentStack();
  const std::uint32_t depth = stack.depth.load(std::memory_order_relaxed);
  if (depth >= kMaxHeld) {
    g_counters.held_stack_overflows.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stack.sites[depth].store(site, std::memory_order_relaxed);
  stack.depth.store(depth + 1, std::memory_order_release);
}

void OnReleased(std::uint32_t site) {
  HeldSlot& stack = CurrentStack();
  const std::uint32_t depth = stack.depth.load(std::memory_order_relaxed);
  // Releases may be out of LIFO order (hand-over-hand), so remove the most
  // recent matching entry wherever it sits.
  for (std::uint32_t i = depth; i > 0; --i) {
    if (stack.sites[i - 1].load(std::memory_order_relaxed) == site) {
      for (std::uint32_t j = i - 1; j + 1 < depth; ++j) {
        stack.sites[j].store(stack.sites[j + 1].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
      }
      stack.depth.store(depth - 1, std::memory_order_release);
      return;
    }
  }
  ReportSingleSite(LockdepViolationKind::kUnlockUnheld, site);
}

}  // namespace

void LockdepEnable(bool on) { g_lockdep_enabled.store(on, std::memory_order_relaxed); }

bool LockdepIsEnabled() { return g_lockdep_enabled.load(std::memory_order_relaxed); }

void LockdepReset() {
  std::lock_guard<std::mutex> guard(g_report_mu);
  for (std::uint32_t i = 0; i < kEdgeCapacity; ++i) {
    g_edges[i].store(0, std::memory_order_relaxed);
  }
  g_report_count = 0;
  g_counters.events.store(0, std::memory_order_relaxed);
  g_counters.edges.store(0, std::memory_order_relaxed);
  g_counters.edge_table_drops.store(0, std::memory_order_relaxed);
  g_counters.cycles.store(0, std::memory_order_relaxed);
  g_counters.self_deadlocks.store(0, std::memory_order_relaxed);
  g_counters.unlock_unheld.store(0, std::memory_order_relaxed);
  g_counters.held_stack_overflows.store(0, std::memory_order_relaxed);
  g_counters.sleeps_while_holding.store(0, std::memory_order_relaxed);
  // Invalidate every thread's held stack lazily (checked in CurrentStack).
  g_generation.fetch_add(1, std::memory_order_relaxed);
}

std::vector<LockdepReport> LockdepReports() {
  std::lock_guard<std::mutex> guard(g_report_mu);
  return std::vector<LockdepReport>(g_reports, g_reports + g_report_count);
}

LockdepStats LockdepGetStats() {
  LockdepStats stats;
  stats.events = g_counters.events.load(std::memory_order_relaxed);
  stats.edges = g_counters.edges.load(std::memory_order_relaxed);
  stats.edge_table_drops = g_counters.edge_table_drops.load(std::memory_order_relaxed);
  stats.cycles = g_counters.cycles.load(std::memory_order_relaxed);
  stats.self_deadlocks = g_counters.self_deadlocks.load(std::memory_order_relaxed);
  stats.unlock_unheld = g_counters.unlock_unheld.load(std::memory_order_relaxed);
  stats.held_stack_overflows =
      g_counters.held_stack_overflows.load(std::memory_order_relaxed);
  stats.sleeps_while_holding =
      g_counters.sleeps_while_holding.load(std::memory_order_relaxed);
  return stats;
}

std::vector<LockdepHeldThread> LockdepHeldSnapshot() {
  std::vector<LockdepHeldThread> out;
  const std::uint64_t generation = g_generation.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < kHeldSlotPool; ++i) {
    HeldSlot& slot = g_held_slots[i];
    if (!slot.in_use.load(std::memory_order_acquire)) {
      continue;
    }
    if (slot.generation.load(std::memory_order_relaxed) != generation) {
      continue;  // stale stack from before the last LockdepReset
    }
    // The acquire pairs with the owner's release on depth: every site at
    // index < depth is visible. The owner may race ahead of us -- this is
    // a diagnostic snapshot, not a barrier.
    std::uint32_t depth = slot.depth.load(std::memory_order_acquire);
    if (depth == 0) {
      continue;
    }
    depth = depth < kMaxHeld ? depth : kMaxHeld;
    LockdepHeldThread held;
    held.slot = i;
    held.sites.reserve(depth);
    for (std::uint32_t j = 0; j < depth; ++j) {
      held.sites.push_back(slot.sites[j].load(std::memory_order_relaxed));
    }
    out.push_back(std::move(held));
  }
  return out;
}

std::string LockdepHeldDescribe() {
  std::string out;
  for (const LockdepHeldThread& held : LockdepHeldSnapshot()) {
    out += "  thread-slot ";
    out += std::to_string(held.slot);
    out += " holds:";
    for (const std::uint32_t site : held.sites) {
      out += " site ";
      out += std::to_string(site);
      if (site < kMaxNamedSites && g_site_names[site][0] != '\0') {
        out += " (";
        out += g_site_names[site];
        out += ")";
      }
    }
    out += "\n";
  }
  if (out.empty()) {
    out = "  (no traced locks held, or lockdep is disabled)\n";
  }
  return out;
}

void LockdepRegisterSiteName(std::uint32_t site, const std::string& name) {
  if (site >= kMaxNamedSites) {
    return;
  }
  std::lock_guard<std::mutex> guard(g_report_mu);
  std::snprintf(g_site_names[site], sizeof g_site_names[site], "%s", name.c_str());
}

std::string LockdepReport::Describe() const {
  // Callers may hold g_report_mu (RecordReportLocked); read the name table
  // directly rather than re-locking. External callers race only with site
  // registration, which happens at lock construction, before any event
  // involving that site can exist.
  std::string out = ViolationLabel(kind);
  out += ": ";
  for (std::uint32_t i = 0; i < chain_len; ++i) {
    if (i != 0) {
      out += " -> ";
    }
    const std::uint32_t site = chain[i];
    out += "site ";
    out += std::to_string(site);
    if (site < kMaxNamedSites && g_site_names[site][0] != '\0') {
      out += " (";
      out += g_site_names[site];
      out += ")";
    }
  }
  return out;
}

void LockdepOnTraceEvent(TraceEventKind kind, std::uint32_t arg) {
  g_counters.events.fetch_add(1, std::memory_order_relaxed);
  switch (kind) {
    case TraceEventKind::kAcquireBegin:
      if (arg != 0) {
        OnAcquireBegin(arg);
      }
      break;
    case TraceEventKind::kAcquired:
      if (arg != 0) {
        OnAcquired(arg);
      }
      break;
    case TraceEventKind::kReleased:
      if (arg != 0) {
        OnReleased(arg);
      }
      break;
    case TraceEventKind::kFutexSleepBegin:
      if (CurrentStack().depth.load(std::memory_order_relaxed) > 0) {
        g_counters.sleeps_while_holding.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    default:
      break;
  }
}

}  // namespace lockin
