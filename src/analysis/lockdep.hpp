// LockLint runtime lock-order / deadlock detector (lockdep).
//
// A lockdep-style acquisition-graph checker over the LockScope event
// stream. Every traced lock acquire/release in the process already funnels
// through one inline hook (TraceEmit in src/obs/trace.hpp: trace-hooked
// LockHandles and the raw-futex entry points in src/futex/futex.cpp); when
// lockdep is enabled those same events also drive:
//
//   * a per-thread held-lock stack (fixed depth, thread-local, no
//     allocation);
//   * a global site-keyed acquisition graph: acquiring B while holding A
//     records the edge A -> B in a fixed-capacity lock-free edge table
//     (each traced lock site -- see NextTraceSiteId -- is its own lock
//     class);
//   * cycle detection on *first insertion* of each edge: an edge that
//     closes a cycle (ABBA or longer) is reported exactly once, with the
//     full site chain, both to stderr and -- when a trace sink is installed
//     -- as kLockdepViolation instants in the exported timeline;
//   * self-deadlock (acquiring a site already held by this thread) and
//     unlock-of-unheld checks, reported once per site;
//   * a diagnostics counter of futex sleeps entered while holding another
//     traced lock (kernel round-trips inside critical sections).
//
// Cost when off: the static dispatch tier and untraced LockHandles have no
// emit sites on their fast paths, and traced handles pay one relaxed atomic
// load + predicted branch per event. When on,
// the hot path per event is a thread-local stack push/pop plus, on acquire
// with locks held, one probe of the edge table; full graph analysis runs
// only when a *new* edge appears (bounded: the table holds kEdgeCapacity
// edges, so steady-state acquires never analyze).
#ifndef SRC_ANALYSIS_LOCKDEP_HPP_
#define SRC_ANALYSIS_LOCKDEP_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace.hpp"

namespace lockin {

enum class LockdepViolationKind {
  kCycle,         // lock-order inversion: the site chain forms a cycle
  kSelfDeadlock,  // acquiring a site this thread already holds
  kUnlockUnheld,  // releasing a site this thread does not hold
};

struct LockdepReport {
  static constexpr std::size_t kMaxChain = 8;

  LockdepViolationKind kind = LockdepViolationKind::kCycle;
  // The involved acquisition sites. For kCycle: the cycle's sites in
  // acquisition order, closed (first == last); for the other kinds a
  // single site.
  std::uint32_t chain[kMaxChain] = {};
  std::uint32_t chain_len = 0;

  // "lock-order inversion: site 3 (TICKET) -> site 5 (TICKET) -> site 3".
  std::string Describe() const;
};

struct LockdepStats {
  std::uint64_t events = 0;               // hook invocations while enabled
  std::uint64_t edges = 0;                // distinct edges recorded
  std::uint64_t edge_table_drops = 0;     // edges lost to a full table
  std::uint64_t cycles = 0;               // kCycle reports
  std::uint64_t self_deadlocks = 0;       // kSelfDeadlock reports
  std::uint64_t unlock_unheld = 0;        // kUnlockUnheld reports
  std::uint64_t held_stack_overflows = 0; // acquires beyond kMaxHeld depth
  std::uint64_t sleeps_while_holding = 0; // futex sleeps with >=1 lock held
};

// Runtime switch. Enabling is cheap (one atomic store); the hook itself is
// always compiled in next to the trace emit (see TraceEmit) and costs one
// relaxed load + branch while disabled. Callers opt in
// (scenario_runner --lockdep, ScenarioConfig::lockdep, tests).
void LockdepEnable(bool on);
bool LockdepIsEnabled();

// RAII enable/restore for drivers and tests.
class ScopedLockdep {
 public:
  explicit ScopedLockdep(bool on = true) : previous_(LockdepIsEnabled()) { LockdepEnable(on); }
  ~ScopedLockdep() { LockdepEnable(previous_); }

  ScopedLockdep(const ScopedLockdep&) = delete;
  ScopedLockdep& operator=(const ScopedLockdep&) = delete;

 private:
  bool previous_;
};

// Clears the acquisition graph, the reports and the counters, and
// invalidates every thread's held stack (via a generation bump, so stale
// thread-local state from a previous capture cannot leak in). Call between
// unrelated captures while no traced lock is held.
void LockdepReset();

// Snapshot of the violations recorded so far (bounded; see Describe()).
std::vector<LockdepReport> LockdepReports();
LockdepStats LockdepGetStats();

// One live thread's currently-held traced sites, as seen from outside.
struct LockdepHeldThread {
  std::uint32_t slot = 0;  // pool slot index (stable for the thread's life)
  std::vector<std::uint32_t> sites;
};

// Best-effort cross-thread snapshot of what every traced thread currently
// holds. Used by the FailSafe stall watchdog to dump the held-lock state
// of wedged workers. Reads the owner threads' stacks via acquire loads --
// safe to call from any thread at any time; only meaningful while lockdep
// is enabled (with it off no acquire ever reaches the stacks).
std::vector<LockdepHeldThread> LockdepHeldSnapshot();

// The snapshot as indented human-readable lines for stall reports.
std::string LockdepHeldDescribe();

// Labels an acquisition site for reports ("site 3 (TICKET)").
// LockHandle::EnableTrace registers its lock's registry name automatically;
// sites beyond the fixed name-table capacity stay unlabeled.
void LockdepRegisterSiteName(std::uint32_t site, const std::string& name);

// The event hook, called from TraceEmit when lockdep is enabled. Exposed
// for tests that drive the detector directly; normal code never calls it.
void LockdepOnTraceEvent(TraceEventKind kind, std::uint32_t arg);

}  // namespace lockin

#endif  // SRC_ANALYSIS_LOCKDEP_HPP_
