// Internal plumbing for the built-in scenarios (src/systems/scenarios/*).
//
// Each mini-system contributes one translation unit of ScenarioWorkload
// adapters plus a Register*Scenarios function; ScenarioRegistry::Instance()
// calls every function below, which both populates the registry and keeps
// the linker from dropping the adapter TUs out of the static library.
// Scenario implementations and their mix defaults live in the .cpp files.
#ifndef SRC_SYSTEMS_SCENARIOS_SCENARIO_DEFS_HPP_
#define SRC_SYSTEMS_SCENARIOS_SCENARIO_DEFS_HPP_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/systems/workload_api.hpp"

namespace lockin {

void RegisterKvStoreScenarios(ScenarioRegistry& registry);
void RegisterCacheScenarios(ScenarioRegistry& registry);
void RegisterNosqlScenarios(ScenarioRegistry& registry);
void RegisterGraphScenarios(ScenarioRegistry& registry);
void RegisterMiniSqlScenarios(ScenarioRegistry& registry);
void RegisterWalStoreScenarios(ScenarioRegistry& registry);
void RegisterCowListScenarios(ScenarioRegistry& registry);

// Formats "<prefix><n>" into *out without a std::to_string temporary; with
// a warm capacity this performs no allocation (the hot-path idiom the cache
// driver established).
inline void AssignKey(std::string* out, char prefix, std::uint64_t n) {
  char buf[32];
  const int len =
      std::snprintf(buf, sizeof buf, "%c%llu", prefix, static_cast<unsigned long long>(n));
  out->assign(buf, static_cast<std::size_t>(len));
}

}  // namespace lockin

#endif  // SRC_SYSTEMS_SCENARIOS_SCENARIO_DEFS_HPP_
