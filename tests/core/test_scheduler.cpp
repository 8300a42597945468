#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bvl::core {
namespace {

TEST(ScheduleByClass, MatchesPaperPseudoCode) {
  // Sec. 3.5 pseudo-code, verbatim policy.
  Allocation c = schedule_by_class(AppClass::kComputeBound, Goal::edp());
  EXPECT_EQ(c.atom_cores, 8);
  EXPECT_EQ(c.xeon_cores, 0);

  Allocation i = schedule_by_class(AppClass::kIoBound, Goal::edp());
  EXPECT_EQ(i.xeon_cores, 4);
  EXPECT_EQ(i.atom_cores, 0);

  Allocation h_ed2ap = schedule_by_class(AppClass::kHybrid, Goal::ed2ap());
  EXPECT_EQ(h_ed2ap.xeon_cores, 2);

  Allocation h_edp = schedule_by_class(AppClass::kHybrid, Goal::edp());
  EXPECT_EQ(h_edp.atom_cores, 8);
}

TEST(CostModel, Table3SweepCoversBothServers) {
  Characterizer ch;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kWordCount;
  spec.input_size = 256 * MB;
  auto sweep = table3_sweep(ch, spec);
  ASSERT_EQ(sweep.size(), 8u);  // {2,4,6,8} x {Xeon, Atom}
  for (const auto& p : sweep) {
    EXPECT_GT(p.metrics.energy, 0);
    EXPECT_GT(p.metrics.delay, 0);
  }
  EXPECT_EQ(sweep.front().server, "Xeon E5-2420");
  EXPECT_EQ(sweep.back().server, "Atom C2758");
}

TEST(CostModel, MoreAtomCoresLowerEdpForCompute) {
  // Table 3: "in most cases, increasing the number of cores enhances
  // the energy efficiency" — check for WordCount on Atom.
  Characterizer ch;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kWordCount;
  spec.input_size = 1 * GB;
  auto sweep = core_count_sweep(ch, spec, arch::atom_c2758(), {2, 8});
  EXPECT_LT(sweep.back().metrics.edp(), sweep.front().metrics.edp());
}

TEST(CostModel, ArgminFindsMinimum) {
  std::vector<CoreCountPoint> pts{
      {"A", 2, {.energy = 10, .delay = 10, .area_mm2 = 160}},
      {"A", 8, {.energy = 20, .delay = 3, .area_mm2 = 160}},
      {"X", 2, {.energy = 50, .delay = 2, .area_mm2 = 216}},
  };
  EXPECT_EQ(argmin_cost(pts, 1, false).cores, 8);   // EDP: 100 vs 60 vs 100
  EXPECT_EQ(argmin_cost(pts, 3, false).server, "X");  // ED3P favors speed
  EXPECT_THROW(argmin_cost({}, 1, false), Error);
}

TEST(ScheduleMeasured, ComputeBoundJobLandsOnAtom) {
  // The data-driven argmin must agree with the paper's policy for the
  // canonical compute-bound app under the EDP goal.
  Characterizer ch;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kWordCount;
  spec.input_size = 1 * GB;
  Allocation a = schedule_measured(ch, spec, Goal::edp());
  EXPECT_GT(a.atom_cores, 0);
  EXPECT_EQ(a.xeon_cores, 0);
}

TEST(ScheduleMeasured, IoBoundJobLandsOnXeon) {
  Characterizer ch;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kSort;
  spec.input_size = 1 * GB;
  Allocation a = schedule_measured(ch, spec, Goal::edp());
  EXPECT_GT(a.xeon_cores, 0);
  EXPECT_EQ(a.atom_cores, 0);
}

TEST(PlanJobs, PlacesMixAndReportsCosts) {
  Characterizer ch;
  std::vector<JobRequest> jobs{
      {wl::WorkloadId::kWordCount, 1 * GB},
      {wl::WorkloadId::kSort, 1 * GB},
      {wl::WorkloadId::kTeraSort, 1 * GB},
  };
  auto decisions = plan_jobs(ch, jobs, CorePool{8, 8}, Goal::edp());
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_EQ(decisions[0].app_class, AppClass::kComputeBound);
  EXPECT_EQ(decisions[1].app_class, AppClass::kIoBound);
  EXPECT_EQ(decisions[2].app_class, AppClass::kHybrid);
  for (const auto& d : decisions) {
    EXPECT_GT(d.energy, 0);
    EXPECT_GT(d.delay, 0);
    EXPECT_GT(d.goal_cost, 0);
    EXPECT_TRUE(d.allocation.xeon_cores > 0 || d.allocation.atom_cores > 0);
  }
  // WordCount (compute) on Atom; Sort (I/O) on Xeon.
  EXPECT_GT(decisions[0].allocation.atom_cores, 0);
  EXPECT_GT(decisions[1].allocation.xeon_cores, 0);
}

TEST(ScheduleMeasuredDegraded, HonorsFaultPressureAndStaysDeterministic) {
  Characterizer ch;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kWordCount;
  spec.input_size = 256 * MB;
  spec.block_size = 32 * MB;  // 8 map tasks: stragglers have waves to stretch

  RunSpec degraded_spec = spec;  // a seeded background straggler process
  degraded_spec.fault.straggler_prob = 0.3;
  degraded_spec.fault.straggler_factor = 6.0;

  Allocation healthy = schedule_measured(ch, spec, Goal::edp());
  Allocation degraded = schedule_measured(ch, degraded_spec, Goal::edp());
  EXPECT_GT(degraded.xeon_cores + degraded.atom_cores, 0);
  // The stragglers stretch the surface the argmin is taken over.
  EXPECT_GT(ch.run(degraded_spec, arch::atom_c2758()).total_time(),
            ch.run(spec, arch::atom_c2758()).total_time());

  // Same degradation, same answer (the FaultPlan is seeded, and the
  // characterizer caches degraded traces under their own key).
  Allocation again = schedule_measured(ch, degraded_spec, Goal::edp());
  EXPECT_EQ(again.xeon_cores, degraded.xeon_cores);
  EXPECT_EQ(again.atom_cores, degraded.atom_cores);

  // The degraded spec must not pollute the healthy cache entry.
  Allocation healthy_again = schedule_measured(ch, spec, Goal::edp());
  EXPECT_EQ(healthy_again.xeon_cores, healthy.xeon_cores);
  EXPECT_EQ(healthy_again.atom_cores, healthy.atom_cores);
}

TEST(PlanJobs, FallsBackWhenPoolSideMissing) {
  Characterizer ch;
  std::vector<JobRequest> jobs{{wl::WorkloadId::kSort, 1 * GB}};
  // Sort wants Xeon; with an Atom-only pool it must fall back.
  auto decisions = plan_jobs(ch, jobs, CorePool{0, 8}, Goal::edp());
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].allocation.xeon_cores, 0);
  EXPECT_GT(decisions[0].allocation.atom_cores, 0);
}

TEST(ClampToPool, FallbackNeverReturnsZeroCoresOnNonemptyPool) {
  // Regression: the old inline clamp fell straight through a
  // zero-core request (leaving it empty even with cores available)
  // and fabricated a phantom core when the fallback side was empty.
  Allocation none{0, 0, "degenerate"};
  Allocation got = clamp_to_pool(none, CorePool{4, 2});
  EXPECT_GT(got.xeon_cores + got.atom_cores, 0);
  EXPECT_LE(got.xeon_cores, 4);
  EXPECT_LE(got.atom_cores, 2);

  // Both pool sides nonzero: a normal request clamps, never zeroes.
  Allocation want_xeon{8, 0, ""};
  Allocation clamped = clamp_to_pool(want_xeon, CorePool{2, 8});
  EXPECT_EQ(clamped.xeon_cores, 2);
  EXPECT_EQ(clamped.atom_cores, 0);

  // Preferred side absent: falls back to the other side's cores.
  Allocation fell = clamp_to_pool(want_xeon, CorePool{0, 8});
  EXPECT_EQ(fell.xeon_cores, 0);
  EXPECT_GT(fell.atom_cores, 0);
  Allocation fell2 = clamp_to_pool(Allocation{0, 8, ""}, CorePool{3, 0});
  EXPECT_EQ(fell2.atom_cores, 0);
  EXPECT_EQ(fell2.xeon_cores, 3);

  // Empty pool is the only case allowed to yield an empty allocation.
  Allocation empty = clamp_to_pool(want_xeon, CorePool{0, 0});
  EXPECT_EQ(empty.xeon_cores + empty.atom_cores, 0);
}

TEST(PlanJobs, RejectsEmptyPool) {
  Characterizer ch;
  std::vector<JobRequest> jobs{{wl::WorkloadId::kWordCount, 256 * MB}};
  EXPECT_THROW(plan_jobs(ch, jobs, CorePool{0, 0}, Goal::edp()), Error);
}

TEST(PlanJobs, PoolClampsAllocation) {
  Characterizer ch;
  std::vector<JobRequest> jobs{{wl::WorkloadId::kWordCount, 1 * GB}};
  auto decisions = plan_jobs(ch, jobs, CorePool{8, 4}, Goal::edp());
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_LE(decisions[0].allocation.atom_cores, 4);
}

}  // namespace
}  // namespace bvl::core
