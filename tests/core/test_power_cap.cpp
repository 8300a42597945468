// Governor / power-cap runtime on the rack timeline (tier-1 slice;
// the randomized property sweep lives in test_power_cap_props.cpp).
// Pins the contract of MixOptions::power end to end: an inactive spec
// takes the historical zero-extra-events path, metering alone never
// perturbs the timeline, the cap invariant holds at every event
// timestamp, pinned governors realize their levels in the recorded
// node plans, and both replay modes (batch and service) carry the
// telemetry.
#include "core/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace bvl::core {
namespace {

Characterizer& shared_ch() {
  static Characterizer ch;  // trace cache shared across the suite
  return ch;
}

std::vector<JobRequest> small_mix() {
  return {{wl::WorkloadId::kWordCount, 1 * GB},
          {wl::WorkloadId::kSort, 1 * GB},
          {wl::WorkloadId::kGrep, 1 * GB},
          {wl::WorkloadId::kTeraSort, 1 * GB}};
}

Watts idle_total(const std::vector<NodeSpec>& rack) {
  Watts w = 0;
  for (const auto& spec : rack) w += spec.server.power.system_idle_w * spec.count;
  return w;
}

/// The runtime's admissibility floor: idle rack plus one bottom-level
/// task on the hungriest node type (mirrors the PowerRuntime liveness
/// check — caps at or below this are rejected up front).
Watts liveness_floor(const std::vector<NodeSpec>& rack) {
  Watts max_delta = 0;
  for (const auto& spec : rack) {
    power::PowerModel model(spec.server);
    Hertz fmin = spec.server.dvfs.min_freq();
    max_delta = std::max(max_delta, model.node_draw(1, fmin) - model.node_draw(0, fmin));
  }
  return idle_total(rack) + max_delta;
}

MixResult run_power(const std::vector<NodeSpec>& rack, const power::PowerPlanSpec& spec) {
  MixOptions opts;
  opts.power = spec;
  return simulate_mix(shared_ch(), small_mix(), rack, MixPolicy::kEarliestFinish, 0, opts);
}

TEST(PowerCap, InactiveSpecLeavesTelemetryDefault) {
  auto rack = comparison_racks(4)[2];
  MixResult r = simulate_mix(shared_ch(), small_mix(), rack, MixPolicy::kEarliestFinish);
  EXPECT_FALSE(r.power.active);
  EXPECT_EQ(r.power.metered_energy, 0);
  EXPECT_EQ(r.power.peak_draw, 0);
  EXPECT_EQ(r.power.level_changes, 0);
  EXPECT_TRUE(r.power.node_plans.empty());
}

TEST(PowerCap, MeteringAloneMatchesTheHistoricalTimeline) {
  // Cap loop armed at an unreachable budget, no governor: the replay
  // must be the historical timeline exactly — same makespan, same
  // nominal energy, no level changes — plus a physical meter.
  auto rack = comparison_racks(4)[2];
  MixResult plain = simulate_mix(shared_ch(), small_mix(), rack, MixPolicy::kEarliestFinish);
  power::PowerPlanSpec spec;
  spec.rack_cap_w = 1e9;
  MixResult metered = run_power(rack, spec);

  EXPECT_EQ(metered.makespan, plain.makespan);
  EXPECT_EQ(metered.total_energy, plain.total_energy);
  ASSERT_TRUE(metered.power.active);
  EXPECT_EQ(metered.power.level_changes, 0);
  EXPECT_FALSE(metered.power.cap_exceeded);

  // The meter is physical: peak draw at least the idle floor, and the
  // energy integral at least idle power over the makespan.
  Watts idle = idle_total(rack);
  EXPECT_GE(metered.power.peak_draw, idle);
  EXPECT_GE(metered.power.metered_energy, idle * metered.makespan * (1 - 1e-9));

  // One recorded plan per node, all still the static knob.
  std::size_t nodes = 0;
  for (const auto& spec_n : rack) nodes += static_cast<std::size_t>(spec_n.count);
  ASSERT_EQ(metered.power.node_plans.size(), nodes);
  for (const auto& plan : metered.power.node_plans) EXPECT_EQ(plan.segments().size(), 1u);
}

TEST(PowerCap, DrawNeverExceedsABindingCap) {
  auto rack = comparison_racks(4)[0];  // all-big: the rack a cap bites hardest
  power::PowerPlanSpec probe;
  probe.rack_cap_w = 1e9;
  MixResult uncapped = run_power(rack, probe);
  ASSERT_GT(uncapped.power.peak_draw, idle_total(rack));

  power::PowerPlanSpec spec;
  spec.rack_cap_w = 0.8 * uncapped.power.peak_draw;
  MixResult capped = run_power(rack, spec);
  ASSERT_TRUE(capped.power.active);
  EXPECT_FALSE(capped.power.cap_exceeded);
  EXPECT_LE(capped.power.peak_draw, spec.rack_cap_w * (1 + 1e-9));
  EXPECT_GT(capped.power.level_changes, 0) << "a binding cap must move DVFS levels";
  // The capped replay still drains the whole queue.
  ASSERT_EQ(capped.schedule.size(), small_mix().size());
  for (const auto& s : capped.schedule) EXPECT_GT(s.finish, s.start);
}

TEST(PowerCap, StarvingCapIsRejectedUpFront) {
  // A cap below the liveness floor (idle + one bottom-level task on
  // the worst node type) could never admit work — the runtime rejects
  // it instead of deadlocking the dispatch loop.
  auto rack = comparison_racks(4)[2];
  power::PowerPlanSpec spec;
  spec.rack_cap_w = 1.0;  // one watt: below any rack's idle floor
  EXPECT_THROW(run_power(rack, spec), Error);
}

TEST(PowerCap, NegativeOrNaNCapIsRejectedNotIgnored) {
  // The runtime reads rack_cap_w <= 0 as "uncapped" (active() is false
  // without a governor; admit() waves everything through with one), so
  // a negative or NaN budget would silently disable the cap. Both
  // replays reject it up front instead, with or without a governor.
  auto rack = comparison_racks(4)[2];
  TenantWorkload t;
  t.tenant = {"batch", 1.0, 0, 1.0};
  t.mix = {{wl::WorkloadId::kGrep, 1 * GB}};
  for (double bad : {-100.0, std::numeric_limits<double>::quiet_NaN()}) {
    for (auto governor : {power::GovernorKind::kNone, power::GovernorKind::kOndemand}) {
      power::PowerPlanSpec spec;
      spec.governor = governor;
      spec.rack_cap_w = bad;
      EXPECT_THROW(run_power(rack, spec), Error);
      ServiceOptions opts;
      opts.horizon = 600.0;
      opts.mix.power = spec;
      EXPECT_THROW(simulate_service(shared_ch(), {t}, rack, opts), Error);
    }
  }
}

TEST(PowerCap, PinnedGovernorsRealizeTheirLevels) {
  auto rack = std::vector<NodeSpec>{{arch::atom_c2758(), 2}};
  const arch::DvfsTable& table = rack[0].server.dvfs;

  power::PowerPlanSpec save;
  save.governor = power::GovernorKind::kPowersave;
  MixResult low = run_power(rack, save);
  ASSERT_TRUE(low.power.active);
  for (const auto& plan : low.power.node_plans) {
    for (const auto& seg : plan.segments()) {
      EXPECT_EQ(seg.freq, table.min_freq());  // pinned to the bottom level
    }
  }

  power::PowerPlanSpec perf;
  perf.governor = power::GovernorKind::kPerformance;
  MixResult high = run_power(rack, perf);
  for (const auto& plan : high.power.node_plans) {
    for (const auto& seg : plan.segments()) {
      EXPECT_EQ(seg.freq, table.max_freq());  // pinned to the top level
    }
  }

  // Slower clocks stretch the makespan; the meter sees the same story.
  EXPECT_GT(low.makespan, high.makespan);
  EXPECT_GT(low.power.metered_energy, 0);
}

TEST(PowerCap, OndemandPlansAreWellFormed) {
  auto rack = comparison_racks(4)[2];
  power::PowerPlanSpec od;
  od.governor = power::GovernorKind::kOndemand;
  MixResult r = run_power(rack, od);
  ASSERT_TRUE(r.power.active);
  int appended = 0;
  for (const auto& plan : r.power.node_plans) {
    Seconds prev = -1;
    for (const auto& seg : plan.segments()) {
      EXPECT_GT(seg.start, prev);
      EXPECT_GT(seg.freq, 0);
      prev = seg.start;
    }
    appended += static_cast<int>(plan.segments().size()) - 1;
  }
  // Every recorded frequency move is a counted level change.
  EXPECT_EQ(appended, r.power.level_changes);
}

TEST(PowerCap, ServiceModeCarriesTheTelemetry) {
  TenantWorkload t;
  t.tenant = {"batch", 1.0, 0, 1.0};
  t.mix = {{wl::WorkloadId::kWordCount, 1 * GB}, {wl::WorkloadId::kGrep, 1 * GB}};
  ServiceOptions opts;
  opts.arrival_rate = 0.02;
  opts.horizon = 1800.0;
  opts.warmup = 300.0;
  opts.mix.power.governor = power::GovernorKind::kOndemand;

  auto rack = comparison_racks(4)[2];
  ServiceResult r = simulate_service(shared_ch(), {t}, rack, opts);
  ASSERT_GT(r.measured_jobs, 0);
  ASSERT_TRUE(r.power.active);
  EXPECT_FALSE(r.power.cap_exceeded);
  EXPECT_GT(r.power.metered_energy, 0);
  EXPECT_GE(r.power.peak_draw, idle_total(rack));
  std::size_t nodes = 0;
  for (const auto& spec : rack) nodes += static_cast<std::size_t>(spec.count);
  EXPECT_EQ(r.power.node_plans.size(), nodes);

  // And with a cap on top, the invariant holds on the open stream too.
  // The sparse stream's peak can sit barely above the idle floor, so
  // clamp the budget above the runtime's admissibility floor.
  ServiceOptions capped = opts;
  capped.mix.power.rack_cap_w =
      std::max(0.85 * r.power.peak_draw, liveness_floor(rack) * 1.02);
  ServiceResult rc = simulate_service(shared_ch(), {t}, rack, capped);
  EXPECT_FALSE(rc.power.cap_exceeded);
  EXPECT_LE(rc.power.peak_draw, capped.mix.power.rack_cap_w * (1 + 1e-9));
}

}  // namespace
}  // namespace bvl::core
