// FreqPlan: a node's realized frequency timeline.
//
// The paper sweeps {1.2..1.8} GHz as a static per-run knob, and the
// pricers keep that model: one frequency for the life of a job. The
// rack replay's power runtime (core/replay) is where frequency moves:
// its DVFS governors and rack power-cap loop step each node between
// levels mid-replay, and record every move here. A FreqPlan is that
// record — a piecewise-constant timeline of ordered (start_time, freq)
// segments, the first at t=0, each active until the next begins —
// exposed per node as core::PowerStats::node_plans.
//
// The degenerate single-segment plan IS the paper's static knob: a
// node the runtime never moved reports FreqPlan::constant(f).
#pragma once

#include <vector>

#include "util/units.hpp"

namespace bvl::power {

/// One piece of the timeline: `freq` from `start` until the next
/// segment's start (the last segment extends forever).
struct FreqSegment {
  Seconds start = 0;
  Hertz freq = 0;
};

class FreqPlan {
 public:
  /// The static-knob plan: one segment at `freq` from t=0. Requires
  /// a positive, finite frequency.
  static FreqPlan constant(Hertz freq);

  const std::vector<FreqSegment>& segments() const { return segments_; }

  /// Appends a segment at `start` (>= last start; same-time append
  /// replaces the last segment, equal-frequency append coalesces) —
  /// how the governors and the cap loop grow a node's recorded
  /// timeline during a replay.
  void append(Seconds start, Hertz freq);

 private:
  FreqPlan() = default;

  std::vector<FreqSegment> segments_;
};

}  // namespace bvl::power
