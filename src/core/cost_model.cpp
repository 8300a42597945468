#include "core/cost_model.hpp"

#include <limits>

#include "util/error.hpp"

namespace bvl::core {

std::vector<int> paper_core_counts() { return {2, 4, 6, 8}; }

std::vector<CoreCountPoint> core_count_sweep(Characterizer& ch, RunSpec spec,
                                             const arch::ServerConfig& server,
                                             const std::vector<int>& counts) {
  require(!counts.empty(), "core_count_sweep: empty count list");
  std::vector<CoreCountPoint> out;
  out.reserve(counts.size());
  for (int m : counts) {
    require(m >= 1 && m <= server.cores, "core_count_sweep: core count outside server");
    spec.mappers = m;
    perf::RunResult run = ch.run(spec, server);
    out.push_back({server.name, m, metrics_for(run, server.area_mm2)});
  }
  return out;
}

std::vector<CoreCountPoint> table3_sweep(Characterizer& ch, const RunSpec& spec) {
  auto counts = paper_core_counts();
  std::vector<CoreCountPoint> out = core_count_sweep(ch, spec, arch::xeon_e5_2420(), counts);
  auto atom = core_count_sweep(ch, spec, arch::atom_c2758(), counts);
  out.insert(out.end(), atom.begin(), atom.end());
  return out;
}

const CoreCountPoint& argmin_cost(const std::vector<CoreCountPoint>& points, int x,
                                  bool with_area) {
  require(!points.empty(), "argmin_cost: empty sweep");
  const CoreCountPoint* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& p : points) {
    double cost = with_area ? p.metrics.edxap(x) : p.metrics.edxp(x);
    if (cost < best_cost) {
      best_cost = cost;
      best = &p;
    }
  }
  return *best;
}

}  // namespace bvl::core
