#include "perf/perf_model.hpp"

#include <algorithm>
#include <cmath>

#include "perf/task_cost.hpp"
#include "sim/network/nic_preset.hpp"
#include "util/error.hpp"

namespace bvl::perf {

PhaseResult PhaseResult::combine(const PhaseResult& a, const PhaseResult& b) {
  PhaseResult r;
  r.time = a.time + b.time;
  r.cpu_time = a.cpu_time + b.cpu_time;
  r.io_time = a.io_time + b.io_time;
  r.net_time = a.net_time + b.net_time;
  r.energy = a.energy + b.energy;
  r.dynamic_power = r.time > 0 ? r.energy / r.time : 0.0;
  r.avg_ipc = r.time > 0 ? (a.avg_ipc * a.time + b.avg_ipc * b.time) / r.time : 0.0;
  return r;
}

PhaseResult RunResult::whole() const {
  return PhaseResult::combine(PhaseResult::combine(map, reduce), other);
}

PerfModel::PerfModel(arch::ServerConfig server, hdfs::DfsConfig dfs, ClusterConfig cluster)
    : server_(std::move(server)),
      dfs_(dfs),
      cluster_(cluster),
      core_model_(server_.make_core_model()),
      storage_(server_.storage),
      power_(server_) {
  require(cluster_.nodes >= 1, "PerfModel: at least one node");
  require(cluster_.net_mbps > 0, "PerfModel: non-positive network rate");
  line_rate_ = sim::nic_preset(sim::NicPresetId::k1GbE)
                   .endpoint_bytes_per_s(cluster_.net_mbps, server_.network_efficiency);
}

JobCost PerfModel::extract(const mr::JobTrace& trace, int slots) const {
  return extract_job_cost(trace, server_, storage_, dfs_, cluster_, slots);
}

PhaseTerms PerfModel::phase_terms(const PhaseCost& pc, Hertz freq, int slots,
                                  double net_bytes_per_s) const {
  PhaseTerms t;
  t.ntasks = pc.ntasks();
  t.active = std::max(1, std::min({slots, std::max(1, t.ntasks), server_.cores}));

  double total_inst = pc.fixed_inst;
  double wasted_inst = 0;  // instructions of failed/killed attempts
  double device_bytes = pc.fixed_device_bytes;
  double seeks = pc.fixed_seeks;
  double net_bytes = 0;
  Seconds backoff = 0;
  for (const TaskCost& tc : pc.tasks) {
    seeks += tc.seeks;
    backoff += tc.backoff_s;
    device_bytes += tc.device_bytes;
    net_bytes += tc.net_bytes;
    total_inst += tc.inst;
    wasted_inst += tc.wasted_inst;
  }

  // A wave lasts as long as its slowest task: the per-wave CPU
  // multiplier is the sum over waves (index-order assignment, `active`
  // tasks each) of the wave's max fault time factor. All-ones factors
  // reduce to exactly the wave count.
  const double waves = std::ceil(static_cast<double>(t.ntasks) / static_cast<double>(t.active));
  double wave_stretch = 0;
  for (std::size_t b = 0; b < pc.tasks.size(); b += static_cast<std::size_t>(t.active)) {
    std::size_t e = std::min(pc.tasks.size(), b + static_cast<std::size_t>(t.active));
    double slowest = 0;
    for (std::size_t i = b; i < e; ++i) slowest = std::max(slowest, pc.tasks[i].time_factor);
    wave_stretch += slowest;
  }
  // A task-less phase (setup/cleanup) runs its instructions once.
  if (t.ntasks == 0) wave_stretch = 1;

  // CPU component: waves of parallel tasks plus launch overhead.
  if (total_inst > 0) {
    arch::CpiBreakdown cpi = core_model_.cpi(*pc.sig, pc.ws_bytes, freq, t.active);
    t.ipc = cpi.ipc();
    double mean_inst = t.ntasks > 0 ? total_inst / static_cast<double>(t.ntasks) : total_inst;
    t.task_s = mean_inst * cpi.total() / freq;
  }
  // Task launch (JVM fork, class loading) is CPU work: the little
  // core pays its launch factor, and launches speed up with f — one
  // reason Atom is more sensitive to both frequency and block size.
  t.launch_s = dfs_.per_task_overhead_s * server_.task_launch_factor * (1.8 * GHz / freq);
  t.cpu = wave_stretch * t.task_s + waves * t.launch_s +
          static_cast<double>(t.ntasks) * cluster_.master_per_task_s;

  // I/O component: one shared device per node.
  t.io = storage_.transfer_time(static_cast<Bytes>(device_bytes),
                                static_cast<std::uint64_t>(seeks));

  // Network component: shuffle crossing the NIC at this node's
  // sustainable rate.
  t.net = net_bytes / net_bytes_per_s;

  t.floor = pc.fixed_s + std::max({t.cpu, t.io, t.net}) + overlap_s(t.cpu, t.io, t.net);
  t.backoff = backoff / t.active;

  // DRAM traffic estimate for the power model: LLC misses move lines,
  // plus the I/O path is DMA through memory.
  double llc_miss =
      pc.sig ? core_model_.caches().llc_miss_ratio(pc.ws_bytes, pc.locality_theta, t.active)
             : 0.05;
  t.dram_bytes = (total_inst + wasted_inst) * pc.mem_refs_per_inst * llc_miss * 64.0 + device_bytes;
  return t;
}

Seconds PerfModel::overlap_s(Seconds cpu, Seconds io, Seconds net) const {
  Seconds longest = std::max({cpu, io, net});
  return cluster_.overlap_penalty * (cpu + io + net - longest);
}

Watts PerfModel::dynamic_power(const PhaseTerms& t, Hertz freq, Seconds busy_s) const {
  power::SystemLoad load;
  load.active_cores = t.active;
  load.avg_ipc = t.ipc;
  load.mem_gbps = t.dram_bytes / busy_s / 1e9;
  load.disk_duty = std::clamp(t.io / busy_s, 0.0, 1.0);
  return power_.dynamic_power(load, freq);
}

PhaseResult PerfModel::price_phase(const PhaseCost& pc, Hertz freq, int slots) const {
  PhaseResult r;
  if (pc.empty()) return r;
  const PhaseTerms t = phase_terms(pc, freq, slots, line_rate_);
  r.time = t.floor;
  r.cpu_time = t.cpu;
  r.io_time = t.io;
  r.net_time = t.net;
  r.avg_ipc = t.ipc;
  if (r.time > 0) {
    r.dynamic_power = dynamic_power(t, freq, r.time);
    r.energy = r.dynamic_power * r.time;
  }

  // Retry backoff: waiting slots add wall-clock (amortized over the
  // active slots) but no dynamic energy — the paper's idle-subtracted
  // power methodology measures an idle cluster as zero.
  if (t.backoff > 0) {
    r.time += t.backoff;
    if (r.time > 0) r.dynamic_power = r.energy / r.time;
  }
  return r;
}

RunResult PerfModel::price(const mr::JobTrace& trace, Hertz freq, int slots) const {
  require(freq > 0, "PerfModel::price: non-positive frequency");
  if (slots <= 0) slots = server_.cores;

  RunResult result;
  result.workload = trace.workload;
  result.server = server_.name;
  result.freq = freq;
  result.block_size = trace.config.block_size;
  result.input_size = trace.config.input_size;
  result.mappers = slots;

  JobCost jc = extract(trace, slots);
  result.map = price_phase(jc.map, freq, slots);
  result.reduce = price_phase(jc.reduce, freq, slots);
  result.other = price_phase(jc.other, freq, slots);
  return result;
}

}  // namespace bvl::perf
