#include "perf/pricer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/network/nic_preset.hpp"
#include "sim/resource.hpp"
#include "util/error.hpp"

namespace bvl::perf {

std::string to_string(PricerKind kind) {
  switch (kind) {
    case PricerKind::kAnalytic: return "analytic";
    case PricerKind::kEvent: return "event";
  }
  return "?";
}

std::unique_ptr<Pricer> make_pricer(PricerKind kind, const arch::ServerConfig& server,
                                    const hdfs::DfsConfig& dfs, const ClusterConfig& cluster) {
  if (kind == PricerKind::kEvent) {
    return std::make_unique<EventPricer>(server, dfs, cluster);
  }
  return std::make_unique<AnalyticPricer>(server, dfs, cluster);
}

EventPricer::EventPricer(arch::ServerConfig server, hdfs::DfsConfig dfs, ClusterConfig cluster,
                         sim::NicPresetId nic)
    : server_(std::move(server)),
      dfs_(dfs),
      cluster_(cluster),
      nic_(nic),
      core_model_(server_.make_core_model()),
      storage_(server_.storage),
      power_(server_),
      analytic_(server_, dfs, cluster) {}

/// A phase rendered for replay: per-task demands plus the closed-form
/// aggregates (C, I, N) that give the floor and the energy inputs.
struct EventPricer::DerivedPhase {
  std::vector<SimTask> tasks;
  int active = 1;
  double ipc = 1.0;
  Seconds cpu_floor = 0;  ///< analytic C: wave-stretched compute + launch + master
  Seconds io_total = 0;   ///< analytic I: shared-disk transfer time
  Seconds net_total = 0;  ///< analytic N: NIC transfer time
  Seconds backoff_total = 0;
  const arch::Signature* sig = nullptr;
  double ws_bytes = 64.0 * 1024;
  double mem_refs = 0.35;
  double theta = 0.8;
  double total_inst = 0;
  double wasted_inst = 0;
  double device_bytes = 0;
  int ntasks = 0;

  /// Closed-form serialization floor (without backoff): the replay can
  /// exceed it (queueing, quantization) but never undercut the
  /// calibrated non-overlap economics.
  Seconds floor_s(double overlap_penalty) const {
    Seconds longest = std::max({cpu_floor, io_total, net_total});
    Seconds rest = cpu_floor + io_total + net_total - longest;
    return longest + overlap_penalty * rest;
  }
};

EventPricer::DerivedPhase EventPricer::derive_phase(const PhaseCost& pc, Hertz freq,
                                                    int slots) const {
  DerivedPhase d;
  d.ntasks = pc.ntasks();
  if (d.ntasks == 0) return d;
  d.sig = pc.sig;
  d.ws_bytes = pc.ws_bytes;
  d.mem_refs = pc.mem_refs_per_inst;
  d.theta = pc.locality_theta;
  d.active = std::max(1, std::min({slots, std::max(1, d.ntasks), server_.cores}));

  double seeks = 0;
  double net_bytes = 0;
  for (const auto& t : pc.tasks) {
    d.total_inst += t.total_inst();
    d.wasted_inst += t.wasted_inst;
    d.device_bytes += t.total_device_bytes();
    seeks += t.seeks;
    net_bytes += t.total_net_bytes();
    d.backoff_total += t.backoff_s;
  }

  arch::CpiBreakdown cpi = core_model_.cpi(*pc.sig, pc.ws_bytes, freq, d.active);
  d.ipc = cpi.ipc();
  double mean_inst = d.total_inst / static_cast<double>(d.ntasks);
  double launch = dfs_.per_task_overhead_s * server_.task_launch_factor * (1.8 * GHz / freq);
  double master = cluster_.master_per_task_s;

  // Closed-form aggregates, computed exactly as price_phase does so
  // the floor and the analytic phase time coincide on the same trace.
  double waves = std::ceil(static_cast<double>(d.ntasks) / static_cast<double>(d.active));
  double wave_stretch = 0;
  for (std::size_t b = 0; b < pc.tasks.size(); b += static_cast<std::size_t>(d.active)) {
    std::size_t e = std::min(pc.tasks.size(), b + static_cast<std::size_t>(d.active));
    double slowest = 0;
    for (std::size_t i = b; i < e; ++i) slowest = std::max(slowest, pc.tasks[i].time_factor);
    wave_stretch += slowest;
  }
  d.cpu_floor = wave_stretch * (mean_inst * cpi.total() / freq) + waves * launch +
                static_cast<double>(d.ntasks) * master;
  d.io_total = storage_.transfer_time(static_cast<Bytes>(d.device_bytes),
                                      static_cast<std::uint64_t>(seeks));
  double nic_rate =
      sim::nic_preset(nic_).endpoint_bytes_per_s(cluster_.net_mbps, server_.network_efficiency);
  d.net_total = net_bytes / nic_rate;

  // Per-task demands. The shared disk is nonlinear in total volume
  // (burst vs. sustained), so each task gets a share of the phase
  // transfer time proportional to its standalone transfer time rather
  // than an independent (and wrongly burst-priced) estimate.
  double disk_weight_sum = 0;
  std::vector<double> disk_weight(pc.tasks.size(), 0.0);
  for (std::size_t i = 0; i < pc.tasks.size(); ++i) {
    const TaskCost& t = pc.tasks[i];
    disk_weight[i] = storage_.transfer_time(static_cast<Bytes>(t.total_device_bytes()),
                                            static_cast<std::uint64_t>(t.seeks));
    disk_weight_sum += disk_weight[i];
  }
  d.tasks.reserve(pc.tasks.size());
  for (std::size_t i = 0; i < pc.tasks.size(); ++i) {
    const TaskCost& t = pc.tasks[i];
    SimTask s;
    // Every task carries the phase-mean instruction count, the
    // granularity the closed form and its calibration are defined at;
    // per-task variation enters through fault time factors, I/O
    // volumes and wave shape.
    s.cpu_s = mean_inst * cpi.total() / freq * t.time_factor + launch + d.active * master;
    s.disk_svc_s = disk_weight_sum > 0 ? d.io_total * (disk_weight[i] / disk_weight_sum) : 0.0;
    s.net_bytes = t.total_net_bytes();
    s.nic_svc_s = s.net_bytes / nic_rate;
    // The non-overlappable tail of this task's own compute/IO/net —
    // the per-task analogue of the closed form's overlap penalty.
    double longest = std::max({s.cpu_s, s.disk_svc_s, s.nic_svc_s});
    s.serial_s = cluster_.overlap_penalty * (s.cpu_s + s.disk_svc_s + s.nic_svc_s - longest);
    s.backoff_s = t.backoff_s;
    d.tasks.push_back(s);
  }
  return d;
}

namespace {

/// Per-phase replay bookkeeping shared by the task callbacks.
struct PhaseProgress {
  int done = 0;
  Seconds last_finish = 0;
};

/// Launches one task: acquire a slot, then replay its demands and
/// release the slot on completion.
void launch_task(sim::Simulation& sim, sim::SlotPool& pool, sim::ServiceQueue& disk,
                 const ComputeChannel& cpu, const ShuffleChannel& net, const SimTask& t,
                 std::function<void()> on_done) {
  pool.acquire([&sim, &pool, &disk, &cpu, &net, t, on_done = std::move(on_done)] {
    replay_task_on_slot(sim, disk, t, cpu, net, [&pool, on_done] {
      on_done();
      pool.release();
    });
  });
}

}  // namespace

void replay_task_on_slot(sim::Simulation& sim, sim::ServiceQueue& disk, const SimTask& t,
                         const ComputeChannel& cpu, const ShuffleChannel& net,
                         std::function<void()> on_complete) {
  int parts = 1 + (t.disk_svc_s > 0 ? 1 : 0) + (t.nic_svc_s > 0 ? 1 : 0);
  auto remaining = std::make_shared<int>(parts);
  Seconds hold = t.serial_s + t.backoff_s;
  auto part_done = [&sim, remaining, hold, on_complete = std::move(on_complete)] {
    if (--*remaining > 0) return;
    sim.in(hold, on_complete);
  };
  cpu(t, part_done);
  if (t.disk_svc_s > 0) disk.submit(t.disk_svc_s, part_done);
  if (t.nic_svc_s > 0) net(t, part_done);
}

JobSim EventPricer::job_sim(const mr::JobTrace& trace, Hertz freq, int slots) const {
  require(freq > 0, "EventPricer: non-positive frequency");
  if (slots <= 0) slots = server_.cores;

  JobCost jc = extract_job_cost(trace, server_, storage_, dfs_, cluster_, slots);
  DerivedPhase mp = derive_phase(jc.map, freq, slots);
  DerivedPhase rp = derive_phase(jc.reduce, freq, slots);

  // ---- Replay both phases on one node's timeline: compute is a
  // fixed-frequency delay, every network leg queues on the one NIC,
  // and the reduces are released when the last map finishes ----
  sim::Simulation sim;
  sim::SlotPool map_slots(sim, std::max(1, mp.active));
  sim::SlotPool reduce_slots(sim, std::max(1, rp.active));
  sim::ServiceQueue disk(sim);
  sim::ServiceQueue nic(sim);
  ComputeChannel cpu = [&sim](const SimTask& t, std::function<void()> done) {
    sim.in(t.cpu_s, std::move(done));
  };
  ShuffleChannel net = [&nic](const SimTask& t, std::function<void()> done) {
    nic.submit(t.nic_svc_s, std::move(done));
  };

  PhaseProgress map_prog, reduce_prog;
  Seconds reduce_start = 0;
  std::function<void()> launch_reduces = [&] {
    reduce_start = sim.now();
    for (const SimTask& t : rp.tasks) {
      launch_task(sim, reduce_slots, disk, cpu, net, t, [&] {
        ++reduce_prog.done;
        reduce_prog.last_finish = std::max(reduce_prog.last_finish, sim.now());
      });
    }
  };
  for (const SimTask& t : mp.tasks) {
    launch_task(sim, map_slots, disk, cpu, net, t, [&] {
      ++map_prog.done;
      map_prog.last_finish = std::max(map_prog.last_finish, sim.now());
      if (map_prog.done == mp.ntasks) launch_reduces();
    });
  }
  if (mp.ntasks == 0) launch_reduces();
  sim.run();

  // ---- Phase times: the replay, floored at the closed form ----
  Seconds map_time = map_prog.last_finish;
  Seconds reduce_time =
      rp.ntasks > 0 ? std::max<Seconds>(0, reduce_prog.last_finish - reduce_start) : 0;
  if (mp.ntasks > 0) {
    map_time =
        std::max(map_time, mp.floor_s(cluster_.overlap_penalty) + mp.backoff_total / mp.active);
  }
  if (rp.ntasks > 0) {
    reduce_time = std::max(reduce_time,
                           rp.floor_s(cluster_.overlap_penalty) + rp.backoff_total / rp.active);
  }

  JobSim js;
  js.priced.workload = trace.workload;
  js.priced.server = server_.name;
  js.priced.freq = freq;
  js.priced.block_size = trace.config.block_size;
  js.priced.input_size = trace.config.input_size;
  js.priced.mappers = slots;

  auto fill_phase = [&](const DerivedPhase& d, Seconds time) {
    PhaseResult r;
    if (d.ntasks == 0) return r;
    r.time = time;
    r.cpu_time = d.cpu_floor;
    r.io_time = d.io_total;
    r.net_time = d.net_total;
    r.avg_ipc = d.ipc;
    if (r.time > 0) {
      // Same DRAM-traffic estimate as the closed form; energy accrues
      // over the active (non-backoff) time, power over wall time.
      Seconds active_time = std::max<Seconds>(r.time - d.backoff_total / d.active, 1e-12);
      double llc_miss =
          d.sig ? core_model_.caches().llc_miss_ratio(d.ws_bytes, d.theta, d.active) : 0.05;
      double dram_bytes =
          (d.total_inst + d.wasted_inst) * d.mem_refs * llc_miss * 64.0 + d.device_bytes;
      power::SystemLoad load;
      load.active_cores = d.active;
      load.avg_ipc = d.ipc;
      load.mem_gbps = dram_bytes / active_time / 1e9;
      load.disk_duty = std::clamp(d.io_total / active_time, 0.0, 1.0);
      r.energy = power_.dynamic_power(load, freq) * active_time;
      r.dynamic_power = r.energy / r.time;
    }
    return r;
  };
  js.priced.map = fill_phase(mp, map_time);
  js.priced.reduce = fill_phase(rp, reduce_time);
  js.priced.other = analytic_.price(trace, freq, slots).other;

  // Per-task energy shares for cluster-level accounting: a task owns
  // the fraction of its phase's dynamic energy matching its share of
  // the phase's service demand.
  auto share_energy = [](std::vector<SimTask>& tasks, Joules phase_energy) {
    double total = 0;
    for (const SimTask& t : tasks) total += t.cpu_s + t.disk_svc_s + t.nic_svc_s;
    if (total <= 0) return;
    for (SimTask& t : tasks) {
      t.energy = phase_energy * ((t.cpu_s + t.disk_svc_s + t.nic_svc_s) / total);
    }
  };
  js.map_tasks = std::move(mp.tasks);
  js.reduce_tasks = std::move(rp.tasks);
  share_energy(js.map_tasks, js.priced.map.energy);
  share_energy(js.reduce_tasks, js.priced.reduce.energy);
  js.other_s = js.priced.other.time;
  js.other_energy = js.priced.other.energy;
  return js;
}

RunResult EventPricer::price(const mr::JobTrace& trace, Hertz freq, int slots) const {
  return job_sim(trace, freq, slots).priced;
}

}  // namespace bvl::perf
