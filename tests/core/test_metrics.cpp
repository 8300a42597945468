#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bvl::core {
namespace {

TEST(CostMetrics, DefinitionsMatchSection12) {
  CostMetrics m{.energy = 10.0, .delay = 3.0, .area_mm2 = 2.0};
  EXPECT_DOUBLE_EQ(m.edxp(0), 10.0);          // plain energy
  EXPECT_DOUBLE_EQ(m.edp(), 30.0);            // E*D
  EXPECT_DOUBLE_EQ(m.ed2p(), 90.0);           // E*D^2
  EXPECT_DOUBLE_EQ(m.ed3p(), 270.0);          // E*D^3
  EXPECT_DOUBLE_EQ(m.edap(), 60.0);           // E*D*A
  EXPECT_DOUBLE_EQ(m.ed2ap(), 180.0);         // E*D^2*A
}

TEST(CostMetrics, ExponentBoundsEnforced) {
  CostMetrics m{.energy = 1, .delay = 1, .area_mm2 = 1};
  EXPECT_THROW(m.edxp(-1), Error);
  EXPECT_THROW(m.edxp(4), Error);
}

TEST(CostMetrics, HigherExponentPenalizesSlowMachineMore) {
  // The paper's near-real-time argument: as x grows, the slow/cheap
  // machine loses its advantage.
  CostMetrics fast{.energy = 100.0, .delay = 1.0, .area_mm2 = 216};
  CostMetrics slow{.energy = 20.0, .delay = 3.0, .area_mm2 = 160};
  EXPECT_LT(slow.edp(), fast.edp());    // slow machine wins EDP
  EXPECT_GT(slow.ed3p(), fast.ed3p());  // fast machine wins ED3P
}

TEST(CostMetrics, AreaScalesLinearly) {
  CostMetrics a{.energy = 5, .delay = 2, .area_mm2 = 160};
  CostMetrics b = a;
  b.area_mm2 = 320;
  EXPECT_DOUBLE_EQ(b.edap(), 2 * a.edap());
  EXPECT_DOUBLE_EQ(b.edp(), a.edp());  // area does not affect ED^xP
}

TEST(MetricsFor, PullsEnergyDelayFromRun) {
  perf::RunResult r;
  r.map.time = 10;
  r.map.energy = 100;
  r.reduce.time = 5;
  r.reduce.energy = 50;
  r.other.time = 1;
  r.other.energy = 2;
  CostMetrics m = metrics_for(r, 216.0);
  EXPECT_DOUBLE_EQ(m.energy, 152.0);
  EXPECT_DOUBLE_EQ(m.delay, 16.0);
  EXPECT_DOUBLE_EQ(m.area_mm2, 216.0);
  EXPECT_THROW(metrics_for(r, 0.0), Error);
}

// Property: normalization invariance — the paper's Fig. 17 normalizes
// to the 8-Xeon point; ratios of ED^xAP are invariant to common
// scaling of energy and delay units.
class MetricScaling : public ::testing::TestWithParam<int> {};

TEST_P(MetricScaling, RatioInvariantUnderUnitChange) {
  int x = GetParam();
  CostMetrics a{.energy = 7, .delay = 3, .area_mm2 = 160};
  CostMetrics b{.energy = 11, .delay = 2, .area_mm2 = 216};
  double ratio = a.edxap(x) / b.edxap(x);
  // Rescale units (J -> mJ, s -> ms).
  CostMetrics a2{.energy = 7000, .delay = 3000, .area_mm2 = 160};
  CostMetrics b2{.energy = 11000, .delay = 2000, .area_mm2 = 216};
  EXPECT_NEAR(a2.edxap(x) / b2.edxap(x), ratio, 1e-9 * ratio);
}

INSTANTIATE_TEST_SUITE_P(Exponents, MetricScaling, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace bvl::core
