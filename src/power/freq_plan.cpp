#include "power/freq_plan.hpp"

#include <cmath>

#include "util/error.hpp"

namespace bvl::power {

FreqPlan FreqPlan::constant(Hertz freq) {
  require(freq > 0 && std::isfinite(freq), "FreqPlan: non-positive frequency");
  FreqPlan plan;
  plan.segments_.push_back({0.0, freq});
  return plan;
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
