#include "src/platform/failpoint.hpp"

#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/obs/trace.hpp"
#include "src/platform/cycles.hpp"
#include "src/platform/rng.hpp"

namespace lockin {
namespace {

constexpr const char* kSiteNames[kFailpointCount] = {
    "futex/wait", "futex/wake", "cache/evict",   "wal/append",
    "wal/flush",  "wal/batch",  "scenario/op",
};

// One armed rule. Immutable after publication: Arm swaps the per-site
// atomic pointer, so concurrent hits either see the whole rule or none of
// it. Retired rules go to a keep-alive list instead of being freed --
// arming is rare (per run / per test), hits are not, and a reader may
// still hold the old pointer.
struct Rule {
  enum class Kind : std::uint8_t { kAlways, kProb, kEveryN, kOnce };
  Kind kind = Kind::kAlways;
  double probability = 0.0;    // kProb
  std::uint64_t n = 1;         // kEveryN period / kOnce target hit (1-based)
  std::uint64_t delay_ns = 0;  // nonzero: delay instead of fail
  std::uint64_t seed = 1;      // kProb determinism
  std::string text;            // canonical rule text for reports
};

struct SiteState {
  std::atomic<const Rule*> rule{nullptr};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fires{0};
  std::atomic<std::uint64_t> delays{0};
};

SiteState g_sites[kFailpointCount];

// Serializes Arm/Disarm and owns retired rules for the process lifetime.
std::mutex g_arm_mutex;
// Intentionally immortal (never destroyed): retired rules must outlive any
// reader still inside FailpointFired, and the list must stay reachable at
// exit so LeakSanitizer sees the keep-alive as reachable, not leaked.
std::vector<const Rule*>& RetiredRules() {
  static std::vector<const Rule*>* retired = new std::vector<const Rule*>();
  return *retired;
}

std::string ValidSiteList() {
  std::string out;
  for (std::size_t i = 0; i < kFailpointCount; ++i) {
    if (i != 0) out += ", ";
    out += kSiteNames[i];
  }
  return out;
}

// Parses one `site=rule` entry into (id, rule). Throws on malformed input.
void ParseEntry(const std::string& entry, std::uint64_t seed, FailpointId* id,
                Rule* rule) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("failpoint entry '" + entry +
                                "' is not site=rule");
  }
  const std::string site = entry.substr(0, eq);
  *id = FailpointFromName(site);
  if (*id == FailpointId::kCount) {
    throw std::invalid_argument("unknown failpoint site '" + site +
                                "' (available: " + ValidSiteList() + ")");
  }
  std::string body = entry.substr(eq + 1);
  if (body.empty()) {
    throw std::invalid_argument("failpoint entry '" + entry +
                                "' has an empty rule");
  }
  rule->text = body;
  rule->seed = seed ^ (0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(*id) + 1));
  const std::size_t tilde = body.find('~');
  if (tilde != std::string::npos) {
    const std::string delay = body.substr(tilde + 1);
    try {
      rule->delay_ns = std::stoull(delay);
    } catch (const std::exception&) {
      throw std::invalid_argument("failpoint entry '" + entry +
                                  "' has a bad delay '" + delay + "'");
    }
    body = body.substr(0, tilde);
  }
  try {
    if (body == "always") {
      rule->kind = Rule::Kind::kAlways;
    } else if (body.rfind("p", 0) == 0 && body.size() > 1) {
      rule->kind = Rule::Kind::kProb;
      rule->probability = std::stod(body.substr(1));
      if (rule->probability < 0.0 || rule->probability > 1.0) {
        throw std::out_of_range("probability outside [0,1]");
      }
    } else if (body.rfind("every", 0) == 0) {
      rule->kind = Rule::Kind::kEveryN;
      rule->n = std::stoull(body.substr(5));
      if (rule->n == 0) throw std::out_of_range("every0");
    } else if (body.rfind("once", 0) == 0) {
      rule->kind = Rule::Kind::kOnce;
      const std::string at = body.substr(4);
      if (at.empty()) {
        rule->n = 1;
      } else if (at[0] == '@') {
        rule->n = std::stoull(at.substr(1));
        if (rule->n == 0) throw std::out_of_range("once@0");
      } else {
        throw std::invalid_argument("bad once suffix");
      }
    } else if (body != "off") {
      throw std::invalid_argument("unknown rule");
    }
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "failpoint entry '" + entry +
        "' has a bad rule (want off|always|p<float>|every<N>|once[@N], "
        "optionally ~<delay_ns>)");
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("failpoint entry '" + entry +
                                "' has a rule value out of range");
  }
  if (body == "off") {
    // Encode "off" as a null publication; caller checks rule->text.
    rule->text = "off";
  }
}

void DisarmLocked() {
  failpoint_internal::g_armed.store(false, std::memory_order_relaxed);
  for (SiteState& site : g_sites) {
    if (const Rule* old = site.rule.exchange(nullptr,
                                             std::memory_order_release)) {
      RetiredRules().push_back(old);
    }
    site.hits.store(0, std::memory_order_relaxed);
    site.fires.store(0, std::memory_order_relaxed);
    site.delays.store(0, std::memory_order_relaxed);
  }
}

}  // namespace

namespace failpoint_internal {

std::atomic<bool> g_armed{false};

FailpointAction HitSlow(FailpointId id) {
  SiteState& site = g_sites[static_cast<std::size_t>(id)];
  // Pairs with the release exchange in FailpointsArm (see g_armed).
  const Rule* rule = site.rule.load(std::memory_order_acquire);
  if (rule == nullptr) return FailpointAction::kNone;
  const std::uint64_t hit =
      site.hits.fetch_add(1, std::memory_order_relaxed) + 1;  // 1-based
  bool fire = false;
  switch (rule->kind) {
    case Rule::Kind::kAlways:
      fire = true;
      break;
    case Rule::Kind::kProb: {
      // Pure function of (seed, hit index): replays are interleaving-proof.
      std::uint64_t state = rule->seed ^ (hit * 0x9e3779b97f4a7c15ULL);
      const double draw =
          static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
      fire = draw < rule->probability;
      break;
    }
    case Rule::Kind::kEveryN:
      fire = (hit % rule->n) == 0;
      break;
    case Rule::Kind::kOnce:
      fire = hit == rule->n;
      break;
  }
  if (!fire) return FailpointAction::kNone;
  site.fires.fetch_add(1, std::memory_order_relaxed);
  TraceEmit(TraceEventKind::kFailpointFire, static_cast<std::uint32_t>(id));
  if (rule->delay_ns != 0) {
    site.delays.fetch_add(1, std::memory_order_relaxed);
    if (rule->delay_ns >= 500'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(rule->delay_ns));
    } else {
      SpinForCycles(NsToCycles(rule->delay_ns));
    }
    return FailpointAction::kDelayed;
  }
  return FailpointAction::kFail;
}

}  // namespace failpoint_internal

const char* FailpointName(FailpointId id) {
  const std::size_t index = static_cast<std::size_t>(id);
  return index < kFailpointCount ? kSiteNames[index] : "?";
}

FailpointId FailpointFromName(const std::string& name) {
  for (std::size_t i = 0; i < kFailpointCount; ++i) {
    if (name == kSiteNames[i]) return static_cast<FailpointId>(i);
  }
  return FailpointId::kCount;
}

void FailpointsArm(const std::string& spec, std::uint64_t seed) {
  // Parse the whole spec before touching global state: a malformed entry
  // must not leave the registry half-armed.
  std::vector<std::pair<FailpointId, Rule>> parsed;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    if (!entry.empty()) {
      FailpointId id = FailpointId::kCount;
      Rule rule;
      ParseEntry(entry, seed, &id, &rule);
      parsed.emplace_back(id, std::move(rule));
    }
    begin = end + 1;
  }

  std::lock_guard<std::mutex> guard(g_arm_mutex);
  DisarmLocked();
  bool any = false;
  for (auto& [id, rule] : parsed) {
    if (rule.text == "off") continue;
    SiteState& site = g_sites[static_cast<std::size_t>(id)];
    const Rule* fresh = new Rule(std::move(rule));
    // Release: a hit that loads `fresh` (acquire, HitSlow) sees it built.
    if (const Rule* old =
            site.rule.exchange(fresh, std::memory_order_release)) {
      RetiredRules().push_back(old);  // duplicate entry: last one wins
    }
    any = true;
  }
  if (any) {
    failpoint_internal::g_armed.store(true, std::memory_order_release);
  }
}

void FailpointsDisarm() {
  std::lock_guard<std::mutex> guard(g_arm_mutex);
  DisarmLocked();
}

std::vector<FailpointStatus> FailpointsSnapshot() {
  std::vector<FailpointStatus> out(kFailpointCount);
  for (std::size_t i = 0; i < kFailpointCount; ++i) {
    SiteState& site = g_sites[i];
    FailpointStatus& status = out[i];
    status.name = kSiteNames[i];
    const Rule* rule = site.rule.load(std::memory_order_acquire);
    status.rule = rule != nullptr ? rule->text : "off";
    status.hits = site.hits.load(std::memory_order_relaxed);
    status.fires = site.fires.load(std::memory_order_relaxed);
    status.delays = site.delays.load(std::memory_order_relaxed);
  }
  return out;
}

std::string FailpointsReport() {
  std::string out;
  for (const FailpointStatus& status : FailpointsSnapshot()) {
    if (status.rule == "off" && status.hits == 0) continue;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "failpoint %-12s rule=%-12s hits=%llu fires=%llu delays=%llu\n",
                  status.name, status.rule.c_str(),
                  static_cast<unsigned long long>(status.hits),
                  static_cast<unsigned long long>(status.fires),
                  static_cast<unsigned long long>(status.delays));
    out += line;
  }
  return out;
}

std::string DefaultChaosSpec() {
  return "futex/wait=p0.02,futex/wake=p0.02,cache/evict=every7~2000,"
         "wal/batch=p0.05~3000,scenario/op=p0.01~5000";
}

}  // namespace lockin
