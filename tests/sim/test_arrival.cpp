// Open-loop arrival process: the diurnal curve's shape, thinning that
// follows it, seeded determinism, and inputs on which Lewis-Shedler
// thinning could never accept a candidate rejected at construction
// instead of spinning forever in next_after().
#include "sim/workload/arrival.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace bvl::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The bvl::Error message constructing the process throws ("" if none).
std::string construction_error(double rate, DiurnalCurve curve) {
  try {
    ArrivalProcess p(rate, curve, 42);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ArrivalProcess, RejectsNonFinitePeakThatWouldStallThinning) {
  for (double peak_at : {kNaN, kInf}) {
    DiurnalCurve curve;
    curve.amplitude = 0.3;
    curve.peak_at = peak_at;
    EXPECT_NE(construction_error(1.0, curve).find("peak_at must be finite"), std::string::npos)
        << "peak_at " << peak_at;
  }
}

TEST(ArrivalProcess, RejectsInfiniteRateThatWouldStallThinning) {
  EXPECT_NE(construction_error(kInf, DiurnalCurve{}).find("base rate must be finite"),
            std::string::npos);
}

TEST(ArrivalProcess, RejectsRatesAndCurvesOutsideTheirDomain) {
  for (double rate : {0.0, -1.0, kNaN}) {
    EXPECT_NE(construction_error(rate, DiurnalCurve{}).find("base rate must be finite"),
              std::string::npos)
        << "rate " << rate;
  }
  for (double amplitude : {-0.1, 1.5}) {
    DiurnalCurve curve;
    curve.amplitude = amplitude;
    EXPECT_NE(construction_error(1.0, curve).find("amplitude must be in [0, 1]"),
              std::string::npos)
        << "amplitude " << amplitude;
  }
  DiurnalCurve still;
  still.period = 0;
  EXPECT_NE(construction_error(1.0, still).find("period must be positive"), std::string::npos);
  // Both ends of the amplitude range are valid: flat, and a curve that
  // touches zero load at its trough.
  DiurnalCurve full;
  full.amplitude = 1.0;
  EXPECT_EQ(construction_error(1.0, DiurnalCurve{}), "");
  EXPECT_EQ(construction_error(1.0, full), "");
}

TEST(DiurnalCurve, PeaksAtPeakAtAndStaysInItsBand) {
  DiurnalCurve c;
  c.amplitude = 0.4;
  c.period = 100.0;
  c.peak_at = 30.0;
  EXPECT_DOUBLE_EQ(c.factor(30.0), c.peak_factor());
  EXPECT_NEAR(c.factor(80.0), 1.0 - c.amplitude, 1e-12);  // half a period on
  EXPECT_NEAR(c.factor(130.0), c.peak_factor(), 1e-12);   // one period on
  for (double t = 0; t < 300.0; t += 0.7) {
    EXPECT_GE(c.factor(t), 1.0 - c.amplitude - 1e-12) << t;
    EXPECT_LE(c.factor(t), c.peak_factor() + 1e-12) << t;
  }
  DiurnalCurve flat;
  EXPECT_EQ(flat.peak_factor(), 1.0);
  EXPECT_EQ(flat.factor(12345.0), 1.0);
}

/// The first `n` arrival times of `p`, each strictly after the last.
std::vector<Seconds> arrivals(ArrivalProcess& p, int n) {
  std::vector<Seconds> out;
  Seconds t = 0;
  for (int i = 0; i < n; ++i) {
    Seconds next = p.next_after(t);
    EXPECT_GT(next, t);
    out.push_back(t = next);
  }
  return out;
}

TEST(ArrivalProcess, StreamIsAPureFunctionOfTheSeed) {
  DiurnalCurve curve;
  curve.amplitude = 0.3;
  curve.period = 50.0;
  curve.peak_at = 10.0;
  ArrivalProcess a(2.0, curve, 7), b(2.0, curve, 7), c(2.0, curve, 8);
  std::vector<Seconds> sa = arrivals(a, 200);
  EXPECT_EQ(arrivals(b, 200), sa);
  EXPECT_NE(arrivals(c, 200), sa);
}

TEST(ArrivalProcess, FlatCurveArrivesAtTheBaseRate) {
  ArrivalProcess p(4.0, DiurnalCurve{}, 11);
  const int n = 20000;
  Seconds last = arrivals(p, n).back();
  // Mean gap 1/rate = 0.25 s; over 20000 gaps 3% is about 4 sigma.
  EXPECT_NEAR(last / n, 0.25, 0.25 * 0.03);
}

TEST(ArrivalProcess, ThinningFollowsTheDiurnalCurve) {
  // Over whole periods, the half-period centered on the peak receives
  // (1 + 2a/pi) / (1 - 2a/pi) times the arrivals of the half centered
  // on the trough: 1.934 at amplitude 0.5.
  DiurnalCurve curve;
  curve.amplitude = 0.5;
  curve.period = 100.0;
  curve.peak_at = 25.0;
  ArrivalProcess p(20.0, curve, 3);
  const Seconds horizon = 20 * curve.period;
  int near_peak = 0, near_trough = 0;
  for (Seconds t = p.next_after(0); t < horizon; t = p.next_after(t)) {
    double phase = std::fmod(t - curve.peak_at + curve.period, curve.period);
    if (phase < curve.period / 4 || phase >= 3 * curve.period / 4) {
      ++near_peak;
    } else {
      ++near_trough;
    }
  }
  // The mean load factor over whole periods is 1: about rate x horizon
  // arrivals in all (40000; 3% is about 6 sigma).
  EXPECT_NEAR(near_peak + near_trough, 20.0 * horizon, 0.03 * 20.0 * horizon);
  const double expected = (1 + 2 * 0.5 / std::numbers::pi) / (1 - 2 * 0.5 / std::numbers::pi);
  EXPECT_NEAR(static_cast<double>(near_peak) / near_trough, expected, 0.05 * expected);
}

}  // namespace
}  // namespace bvl::sim
