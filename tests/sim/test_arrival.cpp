// Open-loop arrival process: inputs on which Lewis-Shedler thinning
// could never accept a candidate are rejected at construction instead
// of spinning forever in next_after().
#include "sim/workload/arrival.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

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

}  // namespace
}  // namespace bvl::sim
