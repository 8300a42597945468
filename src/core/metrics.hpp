// Operational- and capital-cost figures of merit (Sec. 1.2):
//   ED^xP  = Energy * Delay^x           (operational cost; x = 1..3)
//   ED^xAP = Energy * Delay^x * Area    (adds capital cost via die area)
// Higher x expresses tighter (near-real-time) performance constraints.
#pragma once

#include "perf/perf_model.hpp"
#include "util/units.hpp"

namespace bvl::core {

/// The one ED^xP implementation: every metric in the repo (CostMetrics,
/// MixResult, bench tables) routes through this so the exponent range
/// is validated in exactly one place.
double edxp_value(Joules energy, Seconds delay, int x);

struct CostMetrics {
  Joules energy = 0;
  Seconds delay = 0;
  double area_mm2 = 0;

  double edxp(int x) const;   ///< E * D^x, x in [0,3] (x=0 is plain energy)
  double edxap(int x) const;  ///< E * D^x * A

  double edp() const { return edxp(1); }
  double ed2p() const { return edxp(2); }
  double ed3p() const { return edxp(3); }
  double edap() const { return edxap(1); }
  double ed2ap() const { return edxap(2); }
};

/// Whole-application metrics from a priced run and the server's die
/// area.
CostMetrics metrics_for(const perf::RunResult& run, double area_mm2);

}  // namespace bvl::core
