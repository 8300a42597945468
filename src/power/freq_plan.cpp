#include "power/freq_plan.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bvl::power {

FreqPlan FreqPlan::constant(Hertz freq) { return FreqPlan({{0.0, freq}}); }

FreqPlan::FreqPlan(std::vector<FreqSegment> segments) {
  require(!segments.empty(), "FreqPlan: empty plan");
  require(segments.front().start == 0, "FreqPlan: first segment must start at t=0");
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const FreqSegment& s = segments[i];
    require(s.freq > 0 && std::isfinite(s.freq), "FreqPlan: non-positive frequency");
    require(std::isfinite(s.start) && s.start >= 0, "FreqPlan: invalid segment start");
    if (i > 0) require(s.start > segments[i - 1].start, "FreqPlan: starts must ascend");
    // Coalesce no-op transitions so single_segment() reflects the
    // plan's *behavior*, not how it happened to be written down.
    if (!segments_.empty() && segments_.back().freq == s.freq) continue;
    segments_.push_back(s);
  }
}

Hertz FreqPlan::min_freq() const {
  Hertz f = segments_.front().freq;
  for (const FreqSegment& s : segments_) f = std::min(f, s.freq);
  return f;
}

Hertz FreqPlan::max_freq() const {
  Hertz f = segments_.front().freq;
  for (const FreqSegment& s : segments_) f = std::max(f, s.freq);
  return f;
}

void FreqPlan::append(Seconds start, Hertz freq) {
  require(freq > 0 && std::isfinite(freq), "FreqPlan::append: non-positive frequency");
  require(start >= segments_.back().start, "FreqPlan::append: time moved backwards");
  if (start == segments_.back().start) {
    segments_.back().freq = freq;
    // Replacing may create an adjacent duplicate; re-coalesce.
    if (segments_.size() >= 2 && segments_[segments_.size() - 2].freq == freq) {
      segments_.pop_back();
    }
    return;
  }
  if (segments_.back().freq == freq) return;  // no-op transition
  segments_.push_back({start, freq});
}

}  // namespace bvl::power
