// Mix-on-rack timeline tests: slot-granular node sharing, cross-type
// job splitting, class-aware routing, iso-power rack provisioning and
// the ED^xP bookkeeping of the whole replay.
#include "core/cluster_sim.hpp"

#include <gtest/gtest.h>

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

/// The paper's mixed queue at deployment scale — large enough that the
/// racks' dynamic energy, not just provisioned idle, drives the
/// comparison.
std::vector<JobRequest> mixed_queue() {
  return {{wl::WorkloadId::kWordCount, 10 * GB}, {wl::WorkloadId::kSort, 10 * GB},
          {wl::WorkloadId::kGrep, 10 * GB},      {wl::WorkloadId::kTeraSort, 10 * GB},
          {wl::WorkloadId::kNaiveBayes, 10 * GB}, {wl::WorkloadId::kWordCount, 10 * GB},
          {wl::WorkloadId::kSort, 10 * GB},      {wl::WorkloadId::kGrep, 10 * GB}};
}

int total_tasks(const MixResult& r) {
  int n = 0;
  for (const auto& s : r.schedule) {
    for (const auto& [type, count] : s.tasks_by_type) n += count;
  }
  return n;
}

TEST(ClusterSim, ScheduleIsConsistent) {
  auto rack = comparison_racks(4)[2];  // heterogeneous
  MixResult r = simulate_mix(shared_ch(), small_mix(), rack, MixPolicy::kClassAware);
  ASSERT_EQ(r.schedule.size(), 4u);
  double max_finish = 0;
  for (const auto& s : r.schedule) {
    EXPECT_GE(s.start, 0);
    EXPECT_GT(s.finish, s.start);
    EXPECT_GT(s.energy, 0);
    max_finish = std::max(max_finish, s.finish);
  }
  EXPECT_DOUBLE_EQ(r.makespan, max_finish);
}

TEST(ClusterSim, JobsShareANodeAtSlotGranularity) {
  // Two jobs on a single 8-slot node: the second must start while the
  // first is still running — jobs are bags of tasks, not node leases.
  std::vector<JobRequest> jobs = {{wl::WorkloadId::kWordCount, 1 * GB},
                                  {wl::WorkloadId::kGrep, 1 * GB}};
  auto rack = std::vector<NodeSpec>{{arch::atom_c2758(), 1}};
  MixResult r = simulate_mix(shared_ch(), jobs, rack, MixPolicy::kEarliestFinish);
  ASSERT_EQ(r.schedule.size(), 2u);
  const auto& a = r.schedule[0];
  const auto& b = r.schedule[1];
  EXPECT_LT(b.start, a.finish) << "second job waited for the first to drain the node";
  EXPECT_LT(a.start, b.finish);
}

TEST(ClusterSim, SingleSlotNodesSerializeAndStretchTheMakespan) {
  std::vector<JobRequest> jobs = {{wl::WorkloadId::kWordCount, 1 * GB},
                                  {wl::WorkloadId::kGrep, 1 * GB}};
  auto rack = std::vector<NodeSpec>{{arch::atom_c2758(), 1}};
  MixOptions narrow;
  narrow.slots_per_node = 1;
  MixResult wide = simulate_mix(shared_ch(), jobs, rack, MixPolicy::kEarliestFinish);
  MixResult one = simulate_mix(shared_ch(), jobs, rack, MixPolicy::kEarliestFinish, 0, narrow);
  EXPECT_GT(one.makespan, wide.makespan);
  for (const auto& n : one.nodes) EXPECT_EQ(n.slots, 1);
}

TEST(ClusterSim, TaskSlotsDeriveFromServerConfig) {
  // The per-node concurrency cap comes from the server config and the
  // policy knob — not a hardcoded min(8, cores) buried in the pricer.
  MixOptions defaults;
  EXPECT_EQ(task_slots_for(arch::xeon_e5_2420(), defaults),
            std::min(arch::xeon_e5_2420().cores, kDefaultTaskSlotsPerNode));
  EXPECT_EQ(task_slots_for(arch::atom_c2758(), defaults),
            std::min(arch::atom_c2758().cores, kDefaultTaskSlotsPerNode));
  MixOptions three;
  three.slots_per_node = 3;
  EXPECT_EQ(task_slots_for(arch::xeon_e5_2420(), three), 3);
  MixOptions huge;
  huge.slots_per_node = 1000;  // still clamped by physical cores
  EXPECT_EQ(task_slots_for(arch::atom_c2758(), huge), arch::atom_c2758().cores);
}

TEST(ClusterSim, SameNameNodeTypesStayDistinct) {
  // A 1-wide, in-order Xeon that keeps the preset's name is its own
  // node type: the rack replays exactly as it does once it is renamed.
  // With two copies it also runs most of each job's tasks, so it is
  // the type setup and cleanup are charged on.
  arch::ServerConfig narrow = arch::xeon_e5_2420();
  narrow.core.issue_width = 1;
  narrow.core.out_of_order = false;
  arch::ServerConfig renamed = narrow;
  renamed.name += " (1-wide)";
  const std::vector<JobRequest> jobs = {{wl::WorkloadId::kWordCount, 1 * GB},
                                        {wl::WorkloadId::kWordCount, 1 * GB}};
  for (int copies : {1, 2}) {
    SCOPED_TRACE(copies);
    Characterizer ch;
    MixResult same = simulate_mix(ch, jobs, {{arch::xeon_e5_2420(), 1}, {narrow, copies}},
                                  MixPolicy::kRoundRobin);
    MixResult apart = simulate_mix(ch, jobs, {{arch::xeon_e5_2420(), 1}, {renamed, copies}},
                                   MixPolicy::kRoundRobin);
    EXPECT_EQ(same.makespan, apart.makespan);
    EXPECT_EQ(same.total_energy, apart.total_energy);
    ASSERT_EQ(same.schedule.size(), apart.schedule.size());
    for (std::size_t j = 0; j < same.schedule.size(); ++j) {
      EXPECT_EQ(same.schedule[j].finish, apart.schedule[j].finish);
      EXPECT_EQ(same.schedule[j].energy, apart.schedule[j].energy);
    }
  }
}

TEST(ClusterSim, WideJobSplitsAcrossNodeTypesUnderPressure) {
  // One 10 GB job has more tasks than a single node's slots; on a
  // heterogeneous rack the work-conserving dispatcher spreads it over
  // big and little nodes.
  std::vector<JobRequest> jobs = {{wl::WorkloadId::kWordCount, 10 * GB}};
  auto rack = std::vector<NodeSpec>{{arch::xeon_e5_2420(), 1}, {arch::atom_c2758(), 3}};
  MixResult r = simulate_mix(shared_ch(), jobs, rack, MixPolicy::kEarliestFinish);
  ASSERT_EQ(r.schedule.size(), 1u);
  EXPECT_TRUE(r.schedule[0].split_across_types())
      << "20 map tasks stayed on one node type despite free slots on the other";
}

TEST(ClusterSim, ClassAwareRoutesSortToXeon) {
  auto rack = comparison_racks(4)[2];
  MixResult r = simulate_mix(shared_ch(), small_mix(), rack, MixPolicy::kClassAware);
  for (const auto& s : r.schedule) {
    if (s.job.workload == wl::WorkloadId::kSort) {
      EXPECT_EQ(s.node_type, arch::xeon_e5_2420().name);
    }
    if (s.job.workload == wl::WorkloadId::kWordCount) {
      EXPECT_EQ(s.node_type, arch::atom_c2758().name);
    }
  }
}

TEST(ClusterSim, ClassAwareFallsBackOnHomogeneousRack) {
  auto all_atom = comparison_racks(4)[1];
  MixResult r = simulate_mix(shared_ch(), small_mix(), all_atom, MixPolicy::kClassAware);
  for (const auto& s : r.schedule) EXPECT_EQ(s.node_type, arch::atom_c2758().name);
}

TEST(ClusterSim, ComparisonRacksShareTheIdlePowerBudget) {
  auto racks = comparison_racks(4);
  ASSERT_EQ(racks.size(), 3u);
  auto idle_w = [](const std::vector<NodeSpec>& rack) {
    double w = 0;
    for (const auto& spec : rack) w += spec.count * spec.server.power.system_idle_w;
    return w;
  };
  double budget = idle_w(racks[0]);
  // Whole-node rounding: every rack lands within one Atom of the
  // all-big rack's idle draw.
  double atom_idle = arch::atom_c2758().power.system_idle_w;
  EXPECT_NEAR(idle_w(racks[1]), budget, atom_idle);
  EXPECT_NEAR(idle_w(racks[2]), budget, atom_idle);
  EXPECT_EQ(racks[2].size(), 2u) << "third rack should mix both types";
}

TEST(ClusterSim, NodeUtilizationAccountsForEveryTask) {
  auto rack = comparison_racks(4)[2];
  MixResult r = simulate_mix(shared_ch(), small_mix(), rack, MixPolicy::kEarliestFinish);
  int node_tasks = 0;
  Joules node_energy = 0;
  for (const auto& n : r.nodes) {
    EXPECT_GE(n.slot_utilization, 0.0);
    EXPECT_LE(n.slot_utilization, 1.0 + 1e-9);
    EXPECT_GE(n.busy_slot_s, 0.0);
    EXPECT_GT(n.energy, 0.0) << "idle power alone should be nonzero";
    node_tasks += n.tasks_run;
    node_energy += n.energy;
  }
  EXPECT_EQ(node_tasks, total_tasks(r));
  // total = per-node (task dynamic + idle) + per-job setup/cleanup.
  Joules other_energy = 0;
  for (const auto& s : r.schedule) other_energy += s.energy;
  EXPECT_LT(node_energy, r.total_energy);
  EXPECT_GT(node_energy + other_energy, r.total_energy);
}

TEST(ClusterSim, HeterogeneousBeatsAllXeonOnEnergy) {
  // The provisioning claim at one idle-power budget: for a mixed
  // queue the hetero rack burns less wall energy than the all-big one.
  auto racks = comparison_racks(4);
  MixResult xeon = simulate_mix(shared_ch(), mixed_queue(), racks[0], MixPolicy::kClassAware);
  MixResult hetero = simulate_mix(shared_ch(), mixed_queue(), racks[2], MixPolicy::kClassAware);
  EXPECT_LT(hetero.total_energy, xeon.total_energy);
}

TEST(ClusterSim, HeterogeneousBeatsAllAtomOnMakespan) {
  auto racks = comparison_racks(4);
  // A Sort-only queue: the all-little rack pays the full I/O gap on
  // every task, while the hetero rack pipelines through its big nodes.
  std::vector<JobRequest> jobs(4, JobRequest{wl::WorkloadId::kSort, 1 * GB});
  MixResult atom = simulate_mix(shared_ch(), jobs, racks[1], MixPolicy::kClassAware);
  MixResult hetero = simulate_mix(shared_ch(), jobs, racks[2], MixPolicy::kClassAware);
  EXPECT_LT(hetero.makespan, atom.makespan);
}

TEST(ClusterSim, HeterogeneousWinsABalancedGoalOnTheMixedQueue) {
  // The headline: replaying the paper's mixed queue on iso-power
  // racks, the hetero rack wins EDP and ED2P against both homogeneous
  // racks under their best policies.
  std::vector<JobRequest> jobs = mixed_queue();
  auto racks = comparison_racks(4);
  auto best = [&](const std::vector<NodeSpec>& rack, int x) {
    double b = std::numeric_limits<double>::infinity();
    for (auto pol : {MixPolicy::kClassAware, MixPolicy::kEarliestFinish}) {
      b = std::min(b, simulate_mix(shared_ch(), jobs, rack, pol).edxp(x));
    }
    return b;
  };
  for (int x : {1, 2}) {
    double hetero = best(racks[2], x);
    EXPECT_LT(hetero, best(racks[0], x)) << "vs all-big at x=" << x;
    EXPECT_LT(hetero, best(racks[1], x)) << "vs all-little at x=" << x;
  }
}

TEST(ClusterSim, EarliestFinishNeverWorseMakespanThanRoundRobin) {
  auto rack = comparison_racks(4)[2];
  MixResult ef = simulate_mix(shared_ch(), small_mix(), rack, MixPolicy::kEarliestFinish);
  MixResult rr = simulate_mix(shared_ch(), small_mix(), rack, MixPolicy::kRoundRobin);
  EXPECT_LE(ef.makespan, rr.makespan * 1.05);
}

TEST(ClusterSim, EdxpAndValidation) {
  auto rack = comparison_racks(2)[2];
  MixResult r = simulate_mix(shared_ch(), {{wl::WorkloadId::kGrep, 1 * GB}}, rack,
                             MixPolicy::kClassAware);
  EXPECT_DOUBLE_EQ(r.edxp(0), r.total_energy);
  EXPECT_DOUBLE_EQ(r.edxp(1), r.total_energy * r.makespan);
  EXPECT_THROW(r.edxp(4), Error);
  EXPECT_THROW(r.edxp(-1), Error);
  EXPECT_DOUBLE_EQ(edxp_value(2.0, 3.0, 3), 54.0);
  EXPECT_THROW(simulate_mix(shared_ch(), {}, {}, MixPolicy::kRoundRobin), Error);
  EXPECT_THROW(comparison_racks(1), Error);
  EXPECT_EQ(to_string(MixPolicy::kClassAware), "class-aware");
}

TEST(ClusterSim, ReduceSlowstartOverlapNeverSlowsALoneJob) {
  // Hadoop's shipped slowstart (5% of the maps done) lets a job's
  // reduces take slots and start shuffling under its map tail. One
  // job alone on one node has no competitor for those slots, so the
  // overlap can only shorten it, and on some workload it must.
  MixOptions overlap;
  overlap.reduce_slowstart = 0.05;
  bool any_strictly_faster = false;
  for (const auto& server : arch::paper_servers()) {
    const std::vector<NodeSpec> rack = {{server, 1}};
    for (wl::WorkloadId id : wl::all_workloads()) {
      const std::vector<JobRequest> job = {{id, 1 * GB}};
      MixResult serial = simulate_mix(shared_ch(), job, rack, MixPolicy::kEarliestFinish, 1);
      MixResult early =
          simulate_mix(shared_ch(), job, rack, MixPolicy::kEarliestFinish, 1, overlap);
      EXPECT_LE(early.makespan, serial.makespan * (1 + 1e-9))
          << server.name << "/" << wl::short_name(id);
      if (early.makespan < serial.makespan * (1 - 1e-9)) any_strictly_faster = true;
    }
  }
  EXPECT_TRUE(any_strictly_faster)
      << "overlapping shuffle with the map tail should shorten at least one job";
}

TEST(ClusterSim, BothReplaysRejectBadMixOptions) {
  // One validator guards both replays. A negative slot count used to
  // fall through to the default (task_slots_for treats <= 0 as
  // "derive"); it is now an error like an out-of-range slowstart.
  auto rack = comparison_racks(2)[2];
  TenantWorkload t;
  t.tenant = {"batch", 1.0, 0, 1.0};
  t.mix = {{wl::WorkloadId::kGrep, 1 * GB}};
  auto bad_options = [] {
    std::vector<MixOptions> bad(5);
    bad[0].slots_per_node = -1;
    bad[1].reduce_slowstart = 0.0;
    bad[2].reduce_slowstart = 1.5;
    bad[3].reduce_slowstart = std::numeric_limits<double>::quiet_NaN();
    // An infinite control period used to pass the > 0 check, fire the
    // governor's last tick at t = inf and report infinite metered energy.
    bad[4].power.governor = power::GovernorKind::kOndemand;
    bad[4].power.period_s = std::numeric_limits<double>::infinity();
    return bad;
  };
  for (const MixOptions& opts : bad_options()) {
    EXPECT_THROW(simulate_mix(shared_ch(), {{wl::WorkloadId::kGrep, 1 * GB}}, rack,
                              MixPolicy::kClassAware, 0, opts),
                 Error);
    ServiceOptions service;
    service.horizon = 600.0;
    service.mix = opts;
    EXPECT_THROW(simulate_service(shared_ch(), {t}, rack, service), Error);
  }
}

}  // namespace
}  // namespace bvl::core
