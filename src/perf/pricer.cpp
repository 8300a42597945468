#include "perf/pricer.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/network/nic_preset.hpp"
#include "sim/resource.hpp"
#include "util/error.hpp"

namespace bvl::perf {

EventPricer::EventPricer(arch::ServerConfig server, hdfs::DfsConfig dfs, ClusterConfig cluster,
                         sim::NicPresetId nic)
    : model_(std::move(server), dfs, cluster),
      nic_rate_(sim::nic_preset(nic).endpoint_bytes_per_s(model_.cluster().net_mbps,
                                                          model_.server().network_efficiency)) {}

std::vector<SimTask> EventPricer::task_demands(const PhaseCost& pc, const PhaseTerms& t) const {
  // The shared disk is nonlinear in total volume (burst vs. sustained),
  // so each task gets a share of the phase transfer time proportional
  // to its standalone transfer time rather than an independent (and
  // wrongly burst-priced) estimate.
  double disk_weight_sum = 0;
  std::vector<double> disk_weight(pc.tasks.size(), 0.0);
  for (std::size_t i = 0; i < pc.tasks.size(); ++i) {
    const TaskCost& tc = pc.tasks[i];
    disk_weight[i] = model_.storage().transfer_time(static_cast<Bytes>(tc.device_bytes),
                                                    static_cast<std::uint64_t>(tc.seeks));
    disk_weight_sum += disk_weight[i];
  }
  std::vector<SimTask> tasks;
  tasks.reserve(pc.tasks.size());
  for (std::size_t i = 0; i < pc.tasks.size(); ++i) {
    const TaskCost& tc = pc.tasks[i];
    SimTask s;
    // Every task carries the phase-mean instruction count, the
    // granularity the closed form and its calibration are defined at;
    // per-task variation enters through fault time factors, I/O
    // volumes and wave shape.
    s.cpu_s = t.task_s * tc.time_factor + t.launch_s + t.active * model_.cluster().master_per_task_s;
    s.disk_svc_s = disk_weight_sum > 0 ? t.io * (disk_weight[i] / disk_weight_sum) : 0.0;
    s.net_bytes = tc.net_bytes;
    s.nic_svc_s = s.net_bytes / nic_rate_;
    // The non-overlappable tail of this task's own compute/IO/net —
    // the per-task analogue of the closed form's overlap penalty.
    s.serial_s = model_.overlap_s(s.cpu_s, s.disk_svc_s, s.nic_svc_s);
    s.backoff_s = tc.backoff_s;
    tasks.push_back(s);
  }
  return tasks;
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
  if (slots <= 0) slots = model_.server().cores;

  JobCost jc = model_.extract(trace, slots);
  const PhaseTerms mt = model_.phase_terms(jc.map, freq, slots, nic_rate_);
  const PhaseTerms rt = model_.phase_terms(jc.reduce, freq, slots, nic_rate_);
  JobSim js;
  js.map_tasks = task_demands(jc.map, mt);
  js.reduce_tasks = task_demands(jc.reduce, rt);

  // ---- Replay both phases on one node's timeline: compute is a
  // fixed-frequency delay, every network leg queues on the one NIC,
  // and the reduces are released when the last map finishes ----
  sim::Simulation sim;
  sim::SlotPool map_slots(sim, mt.active);
  sim::SlotPool reduce_slots(sim, rt.active);
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
    for (const SimTask& t : js.reduce_tasks) {
      launch_task(sim, reduce_slots, disk, cpu, net, t, [&] {
        ++reduce_prog.done;
        reduce_prog.last_finish = std::max(reduce_prog.last_finish, sim.now());
      });
    }
  };
  for (const SimTask& t : js.map_tasks) {
    launch_task(sim, map_slots, disk, cpu, net, t, [&] {
      ++map_prog.done;
      map_prog.last_finish = std::max(map_prog.last_finish, sim.now());
      if (map_prog.done == mt.ntasks) launch_reduces();
    });
  }
  if (mt.ntasks == 0) launch_reduces();
  sim.run();

  // ---- Phase results: the replay, floored at the closed form;
  // energy accrues over the active (non-backoff) time, power over
  // wall time ----
  auto settle = [&](const PhaseTerms& t, Seconds replayed) {
    PhaseResult r;
    if (t.ntasks == 0) return r;
    r.time = std::max(replayed, t.floor + t.backoff);
    r.cpu_time = t.cpu;
    r.io_time = t.io;
    r.net_time = t.net;
    r.avg_ipc = t.ipc;
    if (r.time > 0) {
      Seconds active_time = std::max<Seconds>(r.time - t.backoff, 1e-12);
      r.energy = model_.dynamic_power(t, freq, active_time) * active_time;
      r.dynamic_power = r.energy / r.time;
    }
    return r;
  };
  js.priced.workload = trace.workload;
  js.priced.server = model_.server().name;
  js.priced.freq = freq;
  js.priced.block_size = trace.config.block_size;
  js.priced.input_size = trace.config.input_size;
  js.priced.mappers = slots;
  js.priced.map = settle(mt, map_prog.last_finish);
  js.priced.reduce = settle(rt, std::max<Seconds>(0, reduce_prog.last_finish - reduce_start));
  js.priced.other = model_.price_phase(jc.other, freq, slots);

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
