#include "perf/pricer.hpp"

#include <algorithm>
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
  std::vector<SimTask> tasks(pc.tasks.size());
  double disk_weight_sum = 0;
  for (std::size_t i = 0; i < pc.tasks.size(); ++i) {
    const TaskCost& tc = pc.tasks[i];
    // The weight waits in disk_svc_s until the weights are summed.
    tasks[i].disk_svc_s = model_.storage().transfer_time(static_cast<Bytes>(tc.device_bytes),
                                                         static_cast<std::uint64_t>(tc.seeks));
    disk_weight_sum += tasks[i].disk_svc_s;
  }
  for (std::size_t i = 0; i < pc.tasks.size(); ++i) {
    const TaskCost& tc = pc.tasks[i];
    SimTask& s = tasks[i];
    // Every task carries the phase-mean instruction count, the
    // granularity the closed form and its calibration are defined at;
    // per-task variation enters through fault time factors, I/O
    // volumes and wave shape.
    s.cpu_s = t.task_s * tc.time_factor + t.launch_s + t.active * model_.cluster().master_per_task_s;
    s.disk_svc_s = disk_weight_sum > 0 ? t.io * (s.disk_svc_s / disk_weight_sum) : 0.0;
    s.net_bytes = tc.net_bytes;
    s.nic_svc_s = s.net_bytes / nic_rate_;
    // The non-overlappable tail of this task's own compute/IO/net —
    // the per-task analogue of the closed form's overlap penalty.
    s.serial_s = model_.overlap_s(s.cpu_s, s.disk_svc_s, s.nic_svc_s);
    s.backoff_s = tc.backoff_s;
  }
  return tasks;
}

namespace {

/// One job on one node's timeline: map and reduce tasks on their own
/// slot pools over one disk and one NIC, compute a fixed-frequency
/// delay, and the reduces released when the last map finishes. Every
/// callback captures this object and the task by address (its tasks
/// outlive the run), so none outgrows sim::Callback's inline storage.
class NodeReplay {
 public:
  NodeReplay(const JobSim& js, const PhaseTerms& mt, const PhaseTerms& rt)
      : map_(sim_, mt.active, js.map_tasks, mt.ntasks),
        reduce_(sim_, rt.active, js.reduce_tasks, rt.ntasks) {}
  NodeReplay(const NodeReplay&) = delete;  // callbacks capture `this`
  NodeReplay& operator=(const NodeReplay&) = delete;

  void run() {
    for (const SimTask& t : map_.tasks) launch(map_, t);
    if (map_.ntasks == 0) launch_reduces();
    sim_.run();
  }

  Seconds map_time() const { return map_.last_finish; }
  Seconds reduce_time() const {
    return std::max<Seconds>(0, reduce_.last_finish - reduce_start_);
  }

 private:
  /// Per-phase slot pool and progress.
  struct Phase {
    Phase(sim::Simulation& sim, int slots, const std::vector<SimTask>& t, int n)
        : pool(sim, slots), tasks(t), ntasks(n) {}
    sim::SlotPool pool;
    const std::vector<SimTask>& tasks;
    int ntasks;
    int done = 0;
    Seconds last_finish = 0;
  };

  /// Acquires a slot, then replays the task's demands on it.
  void launch(Phase& ph, const SimTask& t) {
    ph.pool.acquire([this, &ph, &t] {
      replay_task_on_slot(sim_, disk_, t, cpu_, net_, [this, &ph] { finish(ph); });
    });
  }

  void launch_reduces() {
    reduce_start_ = sim_.now();
    for (const SimTask& t : reduce_.tasks) launch(reduce_, t);
  }

  void finish(Phase& ph) {
    ++ph.done;
    ph.last_finish = std::max(ph.last_finish, sim_.now());
    if (&ph == &map_ && map_.done == map_.ntasks) launch_reduces();
    ph.pool.release();
  }

  sim::Simulation sim_;
  sim::ServiceQueue disk_{sim_};
  sim::ServiceQueue nic_{sim_};
  const ComputeChannel cpu_ = [this](const SimTask& t, sim::Callback done) {
    sim_.in(t.cpu_s, std::move(done));
  };
  const ShuffleChannel net_ = [this](const SimTask& t, sim::Callback done) {
    nic_.submit(t.nic_svc_s, std::move(done));
  };
  Phase map_;
  Phase reduce_;
  Seconds reduce_start_ = 0;
};

}  // namespace

void replay_task_on_slot(sim::Simulation& sim, sim::ServiceQueue& disk, const SimTask& t,
                         const ComputeChannel& cpu, const ShuffleChannel& net,
                         sim::Callback on_complete) {
  const int parts = 1 + (t.disk_svc_s > 0 ? 1 : 0) + (t.nic_svc_s > 0 ? 1 : 0);
  const Seconds hold = t.serial_s + t.backoff_s;
  const sim::JoinId task = sim.join(parts, [&sim, hold, done = std::move(on_complete)]() mutable {
    sim.in(hold, std::move(done));
  });
  cpu(t, sim.leg(task));
  if (t.disk_svc_s > 0) disk.submit(t.disk_svc_s, sim.leg(task));
  if (t.nic_svc_s > 0) net(t, sim.leg(task));
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
  NodeReplay replay(js, mt, rt);
  replay.run();

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
  js.priced.map = settle(mt, replay.map_time());
  js.priced.reduce = settle(rt, replay.reduce_time());
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
