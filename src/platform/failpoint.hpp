// FailSafe failpoints: named fault-injection sites, zero-cost when off.
//
// A failpoint is a fixed site in the code (futex slow paths, MemCache
// eviction, WalStore append/flush, the scenario driver) that can be armed
// at runtime with a *deterministic* trigger rule. Disarmed, a site costs
// one relaxed atomic load and a predicted-not-taken branch -- the same
// fencing discipline as the trace and lockdep hooks, so production builds
// keep every site compiled in.
//
// Trigger rules are seeded: whether hit #k of a site fires is a pure
// function of (rule seed, k), so a failing chaos run replays exactly with
// the same SPEC and seed regardless of thread interleaving at other sites.
//
// SPEC grammar (parsed by FailpointsArm, also taken from `scenario_runner
// --failpoints` and `lock_server --failpoints`):
//
//   spec  := entry (',' entry)*
//   entry := site '=' rule
//   rule  := 'off' | base ['~' delay_ns]
//   base  := 'always'            fire on every hit
//          | 'p' FLOAT           fire with probability FLOAT per hit
//          | 'every' N           fire on every N-th hit
//          | 'once' ['@' N]      fire exactly once, on hit N (default 1)
//
// Without the '~' suffix the site *fails* (what that means is up to the
// site: a spurious futex wake, a torn WAL write, ...). With '~delay_ns'
// the site instead stalls for that many nanoseconds and then proceeds
// normally -- the safe way to widen race windows without breaking
// invariants.
#ifndef SRC_PLATFORM_FAILPOINT_HPP_
#define SRC_PLATFORM_FAILPOINT_HPP_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lockin {

// Every failpoint site in the tree. Append only: the numeric value is the
// trace-event payload for kFailpointFire.
enum class FailpointId : std::uint32_t {
  kFutexWait = 0,     // futex wait wrappers: fire = spurious return (no sleep)
  kFutexWake = 1,     // futex wake wrapper: fire = wake ALL waiters (herd)
  kCacheEvict = 2,    // MemCache eviction scan (delay widens LRU races)
  kWalAppend = 3,     // WalLog::Append: fire = torn/corrupt tail write + crash
  kWalFlush = 4,      // WalLog::Append post-write: fire = crash after full record
  kWalStoreBatch = 5, // WalStore group-commit batch (delay widens leader races)
  kScenarioOp = 6,    // scenario driver, once per op (delay perturbs timing)
  kCount
};

inline constexpr std::size_t kFailpointCount =
    static_cast<std::size_t>(FailpointId::kCount);

// Stable site name ("futex/wait", "wal/append", ...) used in SPEC strings.
const char* FailpointName(FailpointId id);

// Reverse lookup; returns kCount when the name is unknown.
FailpointId FailpointFromName(const std::string& name);

// What a hit resolved to.
enum class FailpointAction : std::uint8_t {
  kNone = 0,     // rule absent or did not trigger
  kDelayed = 1,  // rule triggered a delay; the stall already happened
  kFail = 2,     // rule triggered a failure; the site must act on it
};

namespace failpoint_internal {

// Single global arm flag: the only cost a disarmed site pays. It is only a
// relaxed gate and orders nothing: a hit that passes it loads the site's
// rule with acquire (HitSlow), which pairs with the release exchange that
// published the rule (FailpointsArm), and retired rules are never freed,
// so a hit racing an arm or disarm acts on the old rule, the new one or
// none, each fully built.
extern std::atomic<bool> g_armed;

FailpointAction HitSlow(FailpointId id);

}  // namespace failpoint_internal

// Evaluate a site. Returns true when the site must simulate its failure;
// delay rules stall inside the call and return false. Hot-path shape when
// disarmed: one relaxed load + branch.
inline bool FailpointFired(FailpointId id) {
  if (!failpoint_internal::g_armed.load(std::memory_order_relaxed))
      [[likely]] {
    return false;
  }
  return failpoint_internal::HitSlow(id) == FailpointAction::kFail;
}

// Parse `spec` and arm the registry. Replaces any previous arming. Throws
// std::invalid_argument (naming the bad entry and the valid sites) on a
// malformed spec. An empty spec disarms everything.
void FailpointsArm(const std::string& spec, std::uint64_t seed = 1);

// Disarm every site and reset hit/fire counters.
void FailpointsDisarm();

// Per-site observability, for reports and tests.
struct FailpointStatus {
  const char* name = nullptr;
  std::string rule;          // canonical rule text, "off" when unarmed
  std::uint64_t hits = 0;    // times the armed site was evaluated
  std::uint64_t fires = 0;   // times the rule triggered (fail or delay)
  std::uint64_t delays = 0;  // fires that were delay-only
};

// Status of all sites (index = FailpointId). Counters reset on each arm.
std::vector<FailpointStatus> FailpointsSnapshot();

// One line per armed site with nonzero hits, e.g. for stderr reports.
std::string FailpointsReport();

// Chaos profile used by `scenario_runner --chaos` and the chaos sweep
// test: spurious futex wakes, wake-all herds, and delay injection at the
// eviction / group-commit / driver sites. Deliberately excludes the WAL
// crash sites (wal/append, wal/flush) so system invariants still hold.
std::string DefaultChaosSpec();

// RAII arming for scenario runs and tests: arms `spec` on construction
// (no-op when empty), disarms on destruction.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(const std::string& spec, std::uint64_t seed = 1)
      : armed_(!spec.empty()) {
    if (armed_) FailpointsArm(spec, seed);
  }
  ~ScopedFailpoints() {
    if (armed_) FailpointsDisarm();
  }
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;

 private:
  bool armed_;
};

}  // namespace lockin

#endif  // SRC_PLATFORM_FAILPOINT_HPP_
