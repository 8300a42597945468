#include "core/metrics.hpp"

#include <cmath>

#include "util/error.hpp"

namespace bvl::core {

double edxp_value(Joules energy, Seconds delay, int x) {
  require(x >= 0 && x <= 3, "edxp_value: x out of [0,3]");
  return energy * std::pow(delay, x);
}

double CostMetrics::edxp(int x) const { return edxp_value(energy, delay, x); }

double CostMetrics::edxap(int x) const { return edxp(x) * area_mm2; }

CostMetrics metrics_for(const perf::RunResult& run, double area_mm2) {
  require(area_mm2 > 0, "metrics_for: non-positive area");
  return {run.total_energy(), run.total_time(), area_mm2};
}

}  // namespace bvl::core
