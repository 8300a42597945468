// Core-count cost sweep (Table 3 / Fig. 17): prices an application on
// M in {2,4,6,8} cores of each server with mappers = cores and
// evaluates ED^xP / ED^xAP.
#pragma once

#include <vector>

#include "core/characterizer.hpp"
#include "core/metrics.hpp"

namespace bvl::core {

struct CoreCountPoint {
  std::string server;
  int cores = 0;
  CostMetrics metrics;
};

/// The paper's sweep M in {2,4,6,8}.
std::vector<int> paper_core_counts();

/// Prices `spec` on `server` at each core count (mappers = cores) with
/// the closed form every table and scheduler decision is pinned to.
std::vector<CoreCountPoint> core_count_sweep(Characterizer& ch, RunSpec spec,
                                             const arch::ServerConfig& server,
                                             const std::vector<int>& counts);

/// Both servers, paper counts; Xeon points first (Table 3 layout).
std::vector<CoreCountPoint> table3_sweep(Characterizer& ch, const RunSpec& spec);

/// Finds the point minimizing E*D^x*A^a (a = 0 for ED^xP, 1 for
/// ED^xAP) over a sweep. Throws on empty input.
const CoreCountPoint& argmin_cost(const std::vector<CoreCountPoint>& points, int x, bool with_area);

}  // namespace bvl::core
