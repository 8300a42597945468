// DVFS governors and the rack-level power-cap configuration.
//
// A governor is a pure decision rule from observed slot utilization
// to a DVFS level request, evaluated at a fixed control period on the
// event timeline (cpufreq semantics, discretized):
//
//   performance — pin the top level, always;
//   powersave   — pin the bottom level, always;
//   ondemand    — step up one level when utilization over the last
//                 control period exceeds up_threshold, step down one
//                 level when it falls below down_threshold, hold
//                 otherwise.
//
// The rack power cap is enforced on top of whatever the governor
// asked for (RAPL-style): when the modeled rack draw would exceed
// cap_w, nodes are throttled down the DvfsTable levels until it
// fits, and a node that cannot fit even at the bottom level simply
// does not admit new tasks — the scheduler sees capped capacity
// rather than a model that quietly overdraws. The enforcement loop
// itself lives in core/replay/power_runtime.hpp (it needs the rack
// timeline); this header owns the configuration and the governor
// decision rule so both are unit-testable without a rack.
#pragma once

#include <string>

#include "util/units.hpp"

namespace bvl::power {

enum class GovernorKind {
  kNone,         ///< static frequency (the paper's model) — default
  kPerformance,  ///< top DVFS level, always
  kPowersave,    ///< bottom DVFS level, always
  kOndemand,     ///< utilization-driven level stepping
};

std::string to_string(GovernorKind g);

/// The governor/cap configuration carried by core::MixOptions (and so
/// by ServiceOptions::mix). Default-inactive: the default
/// spec leaves every priced surface and golden byte-identical.
struct PowerPlanSpec {
  GovernorKind governor = GovernorKind::kNone;
  /// Rack-level power cap in watts; 0 = uncapped. The cap is on the
  /// *modeled total rack draw* (idle + dynamic, every provisioned
  /// node), the quantity a rack PDU would meter.
  Watts rack_cap_w = 0;
  /// Governor/cap control period on the event timeline.
  Seconds period_s = 1.0;
  /// ondemand thresholds on per-node slot utilization over the last
  /// control period.
  double up_threshold = 0.7;
  double down_threshold = 0.3;

  /// True when this spec can change any priced result at all. An
  /// inactive spec takes every fast path and leaves goldens alone.
  bool active() const { return governor != GovernorKind::kNone || rack_cap_w > 0; }
};

/// The governor decision rule: the level to request next, given the
/// current level, the number of DVFS levels, and the node's slot
/// utilization over the last control period. Pure — the unit tests
/// exercise it exhaustively without a rack simulation.
int govern_level(const PowerPlanSpec& spec, int current_level, int nlevels, double utilization);

}  // namespace bvl::power
