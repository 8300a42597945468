// FreqPlan: frequency as first-class time-varying state.
//
// The paper sweeps {1.2..1.8} GHz as a static per-run knob; every
// layer built on top of it (pricers, rack mix, service stream) then
// inherited the one-fixed-frequency-for-the-life-of-a-job assumption.
// A FreqPlan breaks that: it is a piecewise-constant frequency
// timeline — ordered (start_time, freq) segments, the first at t=0,
// each active until the next begins — produced either up front (an
// open-loop schedule handed to the event pricer) or incrementally by
// the DVFS governors and the rack power-cap loop in core/replay,
// which append a segment every time they move a node between levels.
//
// The degenerate single-segment plan IS the paper's static knob:
// every consumer is required to treat FreqPlan::constant(f) exactly
// like the historical scalar f (tests/perf/test_plan_pricing.cpp pins
// the pricer bit-identical), so the refactor is a strict superset of
// the old model, not a reinterpretation of it.
#pragma once

#include <string>
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
  /// The static-knob plan: one segment at `freq` from t=0.
  static FreqPlan constant(Hertz freq);

  /// Builds a plan from explicit segments. Requires: non-empty, first
  /// start == 0, starts strictly ascending, all frequencies positive.
  /// Adjacent segments at the same frequency are coalesced, so a
  /// "two-segment" plan that never actually changes frequency is a
  /// single-segment plan (and takes the static fast path everywhere).
  explicit FreqPlan(std::vector<FreqSegment> segments);

  /// Frequency in force at time `t` (t >= 0).
  Hertz freq_at(Seconds t) const;

  /// Start time of the first segment after `t`, or +infinity when `t`
  /// is already in the last segment — the event pricer walks segment
  /// boundaries with this.
  Seconds next_change_after(Seconds t) const;

  /// True when the plan never changes frequency — the paper's static
  /// model. Consumers must preserve bit-identical behavior with the
  /// scalar path in this case.
  bool single_segment() const { return segments_.size() == 1; }

  Hertz min_freq() const;
  Hertz max_freq() const;
  const std::vector<FreqSegment>& segments() const { return segments_; }

  /// Appends a segment at `start` (>= last start; same-time append
  /// replaces the last segment, equal-frequency append coalesces) —
  /// how the governors and the cap loop grow a node's recorded
  /// timeline during a replay.
  void append(Seconds start, Hertz freq);

  /// "1.8GHz" for a single-segment plan, "1.8GHz(+3seg)" otherwise.
  std::string label() const;

 private:
  std::vector<FreqSegment> segments_;
};

}  // namespace bvl::power
