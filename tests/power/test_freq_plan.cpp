// FreqPlan, the governor decision rule, and the DVFS level-stepping /
// clamp edge cases the run-time frequency stack leans on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "arch/server_config.hpp"
#include "power/freq_plan.hpp"
#include "power/governor.hpp"
#include "power/power_model.hpp"
#include "util/error.hpp"

namespace bvl::power {
namespace {

arch::ServerConfig xeon() { return arch::xeon_e5_2420(); }
arch::ServerConfig atom() { return arch::atom_c2758(); }

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// FreqPlan
// ---------------------------------------------------------------------------

TEST(FreqPlan, ConstantPlanIsSingleSegment) {
  FreqPlan p = FreqPlan::constant(1.8 * GHz);
  ASSERT_EQ(p.segments().size(), 1u);
  EXPECT_EQ(p.segments().front().start, 0.0);
  EXPECT_EQ(p.segments().front().freq, 1.8 * GHz);
}

TEST(FreqPlan, SegmentsKeepTheirOrder) {
  FreqPlan p = FreqPlan::constant(1.8 * GHz);
  p.append(10, 1.2 * GHz);
  p.append(25, 1.6 * GHz);
  ASSERT_EQ(p.segments().size(), 3u);
  EXPECT_EQ(p.segments()[1].start, 10.0);
  EXPECT_EQ(p.segments()[1].freq, 1.2 * GHz);
  EXPECT_EQ(p.segments()[2].start, 25.0);
  EXPECT_EQ(p.segments()[2].freq, 1.6 * GHz);
}

TEST(FreqPlan, RejectsNonPositiveOrNonFiniteFrequencies) {
  for (Hertz bad : {0.0, -1.2 * GHz, kInf, std::nan("")}) {
    EXPECT_THROW(FreqPlan::constant(bad), Error) << bad;
    FreqPlan p = FreqPlan::constant(1.4 * GHz);
    EXPECT_THROW(p.append(5, bad), Error) << bad;
  }
}

TEST(FreqPlan, AppendGrowsReplacesAndCoalesces) {
  FreqPlan p = FreqPlan::constant(1.8 * GHz);
  p.append(5, 1.4 * GHz);  // grows
  EXPECT_EQ(p.segments().size(), 2u);
  p.append(5, 1.2 * GHz);  // same-time append replaces the last segment
  EXPECT_EQ(p.segments().size(), 2u);
  EXPECT_EQ(p.segments().back().freq, 1.2 * GHz);
  p.append(9, 1.2 * GHz);  // equal-frequency append coalesces
  EXPECT_EQ(p.segments().size(), 2u);
  EXPECT_EQ(p.segments().back().start, 5.0);
  EXPECT_THROW(p.append(2, 1.6 * GHz), Error);  // start before last segment
}

// ---------------------------------------------------------------------------
// Governor decision rule
// ---------------------------------------------------------------------------

TEST(Governor, StaticAndPinnedKinds) {
  PowerPlanSpec none;  // kNone
  EXPECT_FALSE(none.active());
  EXPECT_EQ(govern_level(none, 1, 4, 0.0), 3);  // kNone requests top (base handled by caller)

  PowerPlanSpec perf;
  perf.governor = GovernorKind::kPerformance;
  EXPECT_TRUE(perf.active());
  EXPECT_EQ(govern_level(perf, 0, 4, 0.0), 3);
  EXPECT_EQ(govern_level(perf, 3, 4, 1.0), 3);

  PowerPlanSpec save;
  save.governor = GovernorKind::kPowersave;
  EXPECT_EQ(govern_level(save, 3, 4, 1.0), 0);
}

TEST(Governor, OndemandStepsOneLevelOnThresholds) {
  PowerPlanSpec od;
  od.governor = GovernorKind::kOndemand;  // up 0.7 / down 0.3 defaults
  EXPECT_EQ(govern_level(od, 1, 4, 0.8), 2);   // above up_threshold: +1
  EXPECT_EQ(govern_level(od, 3, 4, 0.9), 3);   // clamped at top
  EXPECT_EQ(govern_level(od, 2, 4, 0.5), 2);   // inside band: hold
  EXPECT_EQ(govern_level(od, 2, 4, 0.1), 1);   // below down_threshold: -1
  EXPECT_EQ(govern_level(od, 0, 4, 0.0), 0);   // clamped at bottom
}

// ---------------------------------------------------------------------------
// DVFS clamp / level stepping / voltage edge cases
// ---------------------------------------------------------------------------

TEST(Dvfs, ClampPinsOutOfRangeFrequencies) {
  const arch::DvfsTable& t = xeon().dvfs;
  EXPECT_EQ(t.clamp(0.5 * GHz), t.min_freq());
  EXPECT_EQ(t.clamp(9.9 * GHz), t.max_freq());
  EXPECT_EQ(t.clamp(t.min_freq()), t.min_freq());  // boundary is a fixed point
  EXPECT_EQ(t.clamp(t.max_freq()), t.max_freq());
  EXPECT_EQ(t.clamp(1.5 * GHz), 1.5 * GHz);        // interior passes through
}

TEST(Dvfs, LevelsEnumerateThePaperSweep) {
  const arch::DvfsTable& t = atom().dvfs;
  ASSERT_EQ(t.levels(), 4);
  EXPECT_EQ(t.level_freq(0), t.min_freq());
  EXPECT_EQ(t.level_freq(t.levels() - 1), t.max_freq());
  EXPECT_EQ(t.level_of(1.2 * GHz), 0);
  EXPECT_EQ(t.level_of(1.8 * GHz), 3);
  EXPECT_EQ(t.level_of(1.3 * GHz), 1);  // ties round up
  EXPECT_EQ(t.level_of(0.1 * GHz), 0);  // clamped below
  EXPECT_EQ(t.level_of(9.0 * GHz), 3);  // clamped above
}

TEST(Dvfs, VoltageAtRejectsNonPositiveAndNonFinite) {
  const arch::DvfsTable& t = xeon().dvfs;
  EXPECT_THROW(t.voltage_at(0), Error);
  EXPECT_THROW(t.voltage_at(-1.0 * GHz), Error);
  EXPECT_THROW(t.voltage_at(std::numeric_limits<double>::quiet_NaN()), Error);
  EXPECT_THROW(t.voltage_at(kInf), Error);
  // Clamps (not extrapolates) outside the table range.
  EXPECT_EQ(t.voltage_at(0.1 * GHz), t.voltage_at(t.min_freq()));
  EXPECT_EQ(t.voltage_at(99 * GHz), t.voltage_at(t.max_freq()));
}

TEST(PowerModelClamp, NodeDrawClampsAtBothTableBoundaries) {
  for (const auto& server : {xeon(), atom()}) {
    PowerModel p(server);
    const arch::DvfsTable& t = server.dvfs;
    // Below min and above max pin to the boundary operating points —
    // no silent linear extrapolation of C*V^2*f past the table.
    EXPECT_EQ(p.node_draw(1, 0.3 * GHz), p.node_draw(1, t.min_freq())) << server.name;
    EXPECT_EQ(p.node_draw(1, 25 * GHz), p.node_draw(1, t.max_freq())) << server.name;
    // And the clamp is monotone across the boundary: an interior
    // point never prices above the max-frequency point.
    EXPECT_LE(p.node_draw(1, 1.5 * GHz), p.node_draw(1, t.max_freq())) << server.name;
    EXPECT_THROW(p.node_draw(1, 0), Error);
    EXPECT_THROW(p.node_draw(1, -1 * GHz), Error);
  }
}

TEST(PowerModelDraw, NodeDrawIsIdleFloorAtZeroCoresAndMonotone) {
  for (const auto& server : {xeon(), atom()}) {
    PowerModel p(server);
    Hertz top = server.dvfs.max_freq(), bottom = server.dvfs.min_freq();
    // No active cores: exactly the idle floor, at any frequency.
    EXPECT_EQ(p.node_draw(0, top), server.power.system_idle_w) << server.name;
    EXPECT_EQ(p.node_draw(0, bottom), server.power.system_idle_w) << server.name;
    // More cores and higher frequency can only draw more.
    EXPECT_GT(p.node_draw(1, top), p.node_draw(0, top)) << server.name;
    EXPECT_GT(p.node_draw(server.cores, top), p.node_draw(1, top)) << server.name;
    EXPECT_GT(p.node_draw(server.cores, top), p.node_draw(server.cores, bottom))
        << server.name;
  }
}

}  // namespace
}  // namespace bvl::power
