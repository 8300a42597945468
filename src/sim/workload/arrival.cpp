#include "sim/workload/arrival.hpp"

#include <cmath>

#include "util/error.hpp"

namespace bvl::sim {

double DiurnalCurve::factor(Seconds t) const {
  if (amplitude == 0.0) return 1.0;
  constexpr double kTau = 6.283185307179586476925286766559;
  return 1.0 + amplitude * std::cos(kTau * (t - peak_at) / period);
}

ArrivalProcess::ArrivalProcess(double base_rate, DiurnalCurve curve, std::uint64_t seed)
    : base_rate_(base_rate), curve_(curve), rng_(seed, /*stream=*/0x61727276ULL) {
  // An infinite rate or a non-finite peak_at makes every acceptance
  // ratio NaN, and thinning would never accept an arrival.
  require(std::isfinite(base_rate) && base_rate > 0,
          "ArrivalProcess: base rate must be finite and positive");
  require(curve.amplitude >= 0 && curve.amplitude <= 1,
          "ArrivalProcess: diurnal amplitude must be in [0, 1]");
  require(curve.period > 0, "ArrivalProcess: diurnal period must be positive");
  require(std::isfinite(curve.peak_at), "ArrivalProcess: diurnal peak_at must be finite");
}

Seconds ArrivalProcess::next_after(Seconds t) {
  // Lewis-Shedler thinning against the constant envelope
  // base_rate * (1 + amplitude) >= rate(s) for all s.
  const double peak = base_rate_ * curve_.peak_factor();
  for (;;) {
    t += rng_.exponential(peak);
    double accept = base_rate_ * curve_.factor(t) / peak;
    if (rng_.next_double() < accept) return t;
  }
}

}  // namespace bvl::sim
