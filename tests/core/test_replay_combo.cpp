// Every replay knob at once, on both replays: a binding rack power cap
// under the ondemand governor, a modeled two-rack fabric with a 4-way
// ECMP spine at 10 GbE endpoints, and rack-local placement. Each knob
// has its own suite; this one pins the combinations — in particular
// the power-mode replay whose shuffle leg routes through the fabric —
// against the invariants every knob promises alone: the cap is never
// exceeded, the per-link byte ledger conserves, every task and job
// completes, and the result is byte-identical across reruns and
// executor widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/cluster_sim.hpp"
#include "power/power_model.hpp"

namespace bvl::core {
namespace {

Characterizer& shared_ch() {
  static Characterizer ch;  // trace cache shared across the suite
  return ch;
}

/// Multi-block jobs: enough maps per job that rack-local placement
/// still spreads a job over both racks and its reduces fetch across
/// the spine (1 GB jobs fit one rack and leave the spine idle).
std::vector<JobRequest> batch_mix() {
  return {{wl::WorkloadId::kWordCount, 4 * GB},
          {wl::WorkloadId::kSort, 4 * GB},
          {wl::WorkloadId::kGrep, 4 * GB},
          {wl::WorkloadId::kTeraSort, 4 * GB}};
}

std::vector<NodeSpec> hetero_rack() { return comparison_racks(4)[2]; }  // 2 Xeon + 7 Atom

/// Fabric and placement half of the combination: two racks striped
/// over the flat node order, a 4-link oversubscribed spine, 10 GbE.
MixOptions fabric_opts() {
  MixOptions opts;
  opts.fabric.modeled = true;
  opts.fabric.topology.rack_of = {0, 1, 0, 1, 0, 1, 0, 1, 0};
  opts.fabric.topology.spine_oversub = 4.0;
  opts.fabric.topology.spine_multipath = 4;
  opts.fabric.nic_preset = sim::NicPresetId::k10GbE;
  opts.power.governor = power::GovernorKind::kOndemand;
  return opts;
}

/// The idle rack plus one bottom-level task on the hungriest node type:
/// the lowest cap the power runtime admits.
Watts liveness_floor(const std::vector<NodeSpec>& rack) {
  Watts idle = 0;
  Watts max_delta = 0;
  for (const auto& spec : rack) {
    power::PowerModel model(spec.server);
    Hertz fmin = spec.server.dvfs.min_freq();
    idle += spec.server.power.system_idle_w * spec.count;
    max_delta = std::max(max_delta, model.node_draw(1, fmin) - model.node_draw(0, fmin));
  }
  return idle + max_delta;
}

/// A cap below the uncapped ondemand peak (so it binds) and above the
/// liveness floor (so the runtime accepts it).
Watts binding_cap(Watts uncapped_peak, const std::vector<NodeSpec>& rack) {
  return std::max(0.8 * uncapped_peak, 1.02 * liveness_floor(rack));
}

void expect_conserved(const sim::FabricStats& f) {
  ASSERT_TRUE(f.modeled);
  EXPECT_EQ(f.spine_links, 4);
  ASSERT_EQ(f.spine_link_bytes.size(), 4u);
  EXPECT_GT(f.cross_rack_bytes, 0.0) << "the striped racks must exercise the spine";
  double link_sum = std::accumulate(f.spine_link_bytes.begin(), f.spine_link_bytes.end(), 0.0);
  EXPECT_NEAR(link_sum, f.cross_rack_bytes, 1e-9 * std::max(1.0, f.cross_rack_bytes));
  EXPECT_NEAR(f.bytes_delivered, f.bytes_injected, 1e-9 * std::max(1.0, f.bytes_injected));
}

void expect_capped(const PowerStats& p, Watts cap) {
  ASSERT_TRUE(p.active);
  EXPECT_EQ(p.cap_w, cap);
  EXPECT_FALSE(p.cap_exceeded);
  EXPECT_LE(p.peak_draw, cap);
  EXPECT_GT(p.level_changes, 0);
}

// Hex-float renderings of every result field: two results compare equal
// as strings iff every double matches to the last bit.
void put_fabric(std::ostringstream& os, const sim::FabricStats& f) {
  os << f.modeled << ' ' << f.flows << ' ' << f.bytes_injected << ' ' << f.bytes_delivered << ' '
     << f.local_bytes << ' ' << f.intra_rack_bytes << ' ' << f.cross_rack_bytes << ' '
     << f.spine_busy_s << ' ' << f.spine_utilization << ' ' << f.spine_links;
  for (double b : f.spine_link_bytes) os << ' ' << b;
  os << '\n';
}

void put_power(std::ostringstream& os, const PowerStats& p) {
  os << p.active << ' ' << p.cap_w << ' ' << p.metered_energy << ' ' << p.peak_draw << ' '
     << p.cap_exceeded << ' ' << p.level_changes << '\n';
  for (const auto& plan : p.node_plans) {
    for (const auto& seg : plan.segments()) os << seg.start << ':' << seg.freq << ' ';
    os << '\n';
  }
}

std::string fingerprint(const MixResult& r) {
  std::ostringstream os;
  os << std::hexfloat << r.makespan << ' ' << r.total_energy << '\n';
  for (const auto& s : r.schedule) {
    os << static_cast<int>(s.job.workload) << ' ' << s.job.input_size << ' '
       << static_cast<int>(s.app_class) << ' ' << s.node_type << ' ' << s.node_index << ' '
       << s.start << ' ' << s.finish << ' ' << s.energy;
    for (const auto& [type, n] : s.tasks_by_type) os << ' ' << type << '=' << n;
    os << '\n';
  }
  for (const auto& u : r.nodes) {
    os << u.node_type << ' ' << u.node_index << ' ' << u.slots << ' ' << u.tasks_run << ' '
       << u.busy_slot_s << ' ' << u.disk_busy_s << ' ' << u.energy << ' ' << u.slot_utilization
       << '\n';
  }
  put_fabric(os, r.fabric);
  put_power(os, r.power);
  return os.str();
}

std::string fingerprint(const ServiceResult& r) {
  std::ostringstream os;
  os << std::hexfloat << r.arrivals << ' ' << r.measured_jobs << ' ' << r.window << ' '
     << r.lambda_measured << ' ' << r.little_l << ' ' << r.little_lambda_w << ' '
     << r.dynamic_energy << ' ' << r.idle_energy << ' ' << r.energy_per_job << ' '
     << r.events_run << '\n';
  for (const LatencySummary* l : {&r.sojourn, &r.queue_delay}) {
    os << l->mean << ' ' << l->p50 << ' ' << l->p95 << ' ' << l->p99 << ' ' << l->max << '\n';
  }
  for (const auto& c : r.classes) {
    os << c.node_type << ' ' << c.nodes << ' ' << c.slots_per_node << ' ' << c.tasks_run << ' '
       << c.slot_utilization << '\n';
  }
  for (const auto& t : r.tenants) {
    os << t.name << ' ' << t.jobs << ' ' << t.mean_sojourn_s << ' ' << t.virtual_time << '\n';
  }
  put_fabric(os, r.fabric);
  put_power(os, r.power);
  return os.str();
}

TEST(ReplayCombination, BatchMixWithCapFabricAndRackLocal) {
  const auto rack = hetero_rack();
  MixOptions opts = fabric_opts();
  opts.power.rack_cap_w = 1e9;  // arms the meter without binding
  MixResult probe = simulate_mix(shared_ch(), batch_mix(), rack, MixPolicy::kRackLocal, 1, opts);
  opts.power.rack_cap_w = binding_cap(probe.power.peak_draw, rack);
  ASSERT_LT(opts.power.rack_cap_w, probe.power.peak_draw) << "the cap must bind";

  MixResult r = simulate_mix(shared_ch(), batch_mix(), rack, MixPolicy::kRackLocal, 1, opts);
  expect_capped(r.power, opts.power.rack_cap_w);
  expect_conserved(r.fabric);

  // Every task of every job ran: the per-job type tallies and the
  // per-node run counts both add up to the rendered task count.
  int want_tasks = 0;
  for (const JobRequest& job : batch_mix()) {
    RunSpec spec;
    spec.workload = job.workload;
    spec.input_size = job.input_size;
    const perf::JobSim sim =
        shared_ch()
            .event_pricer(rack[0].server, opts.fabric.nic_preset)
            .job_sim(shared_ch().trace(spec), spec.freq, task_slots_for(rack[0].server, opts));
    want_tasks += static_cast<int>(sim.map_tasks.size() + sim.reduce_tasks.size());
  }
  int job_tasks = 0;
  ASSERT_EQ(r.schedule.size(), batch_mix().size());
  for (const auto& s : r.schedule) {
    EXPECT_GT(s.finish, s.start);
    for (const auto& [type, n] : s.tasks_by_type) job_tasks += n;
  }
  int node_tasks = 0;
  for (const auto& u : r.nodes) node_tasks += u.tasks_run;
  EXPECT_EQ(job_tasks, want_tasks);
  EXPECT_EQ(node_tasks, want_tasks);

  // Byte-identical across a rerun and across executor widths (a fresh
  // characterizer makes the 4-wide pre-characterization really run).
  const std::string want = fingerprint(r);
  EXPECT_EQ(fingerprint(simulate_mix(shared_ch(), batch_mix(), rack, MixPolicy::kRackLocal, 1,
                                     opts)),
            want);
  Characterizer fresh;
  EXPECT_EQ(fingerprint(simulate_mix(fresh, batch_mix(), rack, MixPolicy::kRackLocal, 4, opts)),
            want);
}

TEST(ReplayCombination, ServiceStreamWithCapFabricAndRackLocal) {
  const auto rack = hetero_rack();
  TenantWorkload batch;
  batch.tenant = {"batch", 1.0, 0, 1.0};
  batch.mix = {{wl::WorkloadId::kWordCount, 1 * GB}, {wl::WorkloadId::kGrep, 1 * GB}};
  TenantWorkload adhoc;
  adhoc.tenant = {"adhoc", 1.0, 0, 1.0};
  adhoc.mix = {{wl::WorkloadId::kSort, 1 * GB}, {wl::WorkloadId::kTeraSort, 1 * GB}};
  const std::vector<TenantWorkload> tenants = {batch, adhoc};

  ServiceOptions opts;
  opts.arrival_rate = 0.03;
  opts.horizon = 1800.0;
  opts.warmup = 0;  // every arrival is measured, so measured == arrivals means all completed
  opts.seed = 7;
  opts.policy = MixPolicy::kRackLocal;
  opts.mix = fabric_opts();
  opts.mix.power.rack_cap_w = 1e9;
  ServiceResult probe = simulate_service(shared_ch(), tenants, rack, opts, 1);
  opts.mix.power.rack_cap_w = binding_cap(probe.power.peak_draw, rack);
  ASSERT_LT(opts.mix.power.rack_cap_w, probe.power.peak_draw) << "the cap must bind";

  ServiceResult r = simulate_service(shared_ch(), tenants, rack, opts, 1);
  expect_capped(r.power, opts.mix.power.rack_cap_w);
  expect_conserved(r.fabric);
  ASSERT_GT(r.arrivals, 0);
  EXPECT_EQ(r.measured_jobs, r.arrivals) << "every arrived job must finalize";
  int tenant_jobs = 0;
  for (const auto& t : r.tenants) tenant_jobs += t.jobs;
  EXPECT_EQ(tenant_jobs, r.arrivals);

  const std::string want = fingerprint(r);
  EXPECT_EQ(fingerprint(simulate_service(shared_ch(), tenants, rack, opts, 1)), want);
  Characterizer fresh;
  EXPECT_EQ(fingerprint(simulate_service(fresh, tenants, rack, opts, 4)), want);
}

}  // namespace
}  // namespace bvl::core
