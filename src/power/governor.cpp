#include "power/governor.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bvl::power {

std::string to_string(GovernorKind g) {
  switch (g) {
    case GovernorKind::kNone: return "none";
    case GovernorKind::kPerformance: return "performance";
    case GovernorKind::kPowersave: return "powersave";
    case GovernorKind::kOndemand: return "ondemand";
  }
  throw Error("to_string(GovernorKind): unknown governor");
}

int govern_level(const PowerPlanSpec& spec, int current_level, int nlevels, double utilization) {
  require(nlevels >= 1, "govern_level: no DVFS levels");
  require(current_level >= 0 && current_level < nlevels, "govern_level: level out of range");
  switch (spec.governor) {
    case GovernorKind::kNone:
    case GovernorKind::kPerformance:
      return nlevels - 1;
    case GovernorKind::kPowersave:
      return 0;
    case GovernorKind::kOndemand:
      if (utilization > spec.up_threshold) return std::min(nlevels - 1, current_level + 1);
      if (utilization < spec.down_threshold) return std::max(0, current_level - 1);
      return current_level;
  }
  throw Error("govern_level: unknown governor");
}

}  // namespace bvl::power
