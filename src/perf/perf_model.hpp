// The timing/energy overlay: prices a machine-independent JobTrace on
// a concrete server at a concrete operating point, reproducing the
// paper's measurement pipeline (wall-clock per MapReduce phase +
// Watts-up dynamic power).
//
// Phase time model (per node):
//   cpu  = waves(tasks/slots) * mean task CPU time
//          + task-launch overhead per wave + serialized master cost
//   io   = one shared device: total bytes (after page cache) + seeks
//   net  = shuffle volume crossing the NIC (reduce phase)
//   time = max(cpu, io, net) + (1 - overlap) * rest
// so compute-bound phases parallelize with slots while I/O-bound
// phases saturate the disk — the mechanism behind every block-size
// and core-count trend in the paper. PerfModel::phase_terms is the one
// implementation of these terms; EventPricer (perf/pricer.hpp) replays
// them task by task.
//
// Fault accounting (mapreduce/fault.hpp): a trace produced under an
// active FaultPlan carries per-task attempt/waste/backoff fields.
// Pricing charges them as
//   * straggler stretch — a wave lasts as long as its slowest task,
//     so the per-wave CPU term is scaled by the max TaskTrace::
//     time_factor of each wave (index-order wave assignment);
//   * wasted work — failed/killed attempts' instructions heat the
//     memory system (power) and their spill/merge volumes hit the
//     shared disk;
//   * retry backoff — waits add wall-clock but no dynamic energy (the
//     paper's idle-subtracted methodology).
// A fault-free trace pays none of the three: every time factor is 1,
// and no task wastes work or waits.
#pragma once

#include <string>

#include "arch/server_config.hpp"
#include "hdfs/dfs.hpp"
#include "mapreduce/trace.hpp"
#include "perf/calibration.hpp"
#include "power/power_model.hpp"

namespace bvl::perf {

/// Cluster-level parameters shared by both server types (the paper
/// runs 3-node clusters on the same network and DRAM size).
struct ClusterConfig {
  int nodes = 3;
  double net_mbps = 117.0;  ///< effective 1 GbE payload rate
  /// Fraction of DRAM usable as page cache for input re-reads.
  double page_cache_fraction = 0.55;
  /// Fraction of the smaller of (cpu, io) that cannot be overlapped.
  double overlap_penalty = 0.30;
  /// Serialized master interaction per task (seconds).
  Seconds master_per_task_s = 0.15;
};

struct PhaseResult {
  Seconds time = 0;
  Seconds cpu_time = 0;   ///< parallel-CPU component
  Seconds io_time = 0;    ///< shared-disk component
  Seconds net_time = 0;   ///< network component
  Watts dynamic_power = 0;
  Joules energy = 0;      ///< dynamic energy (paper methodology)
  double avg_ipc = 0;

  /// Weighted combination of phases (time adds; power is the
  /// time-weighted mean).
  static PhaseResult combine(const PhaseResult& a, const PhaseResult& b);
};

struct RunResult {
  std::string workload;
  std::string server;
  Hertz freq = 0;
  Bytes block_size = 0;
  Bytes input_size = 0;
  int mappers = 0;

  PhaseResult map;
  PhaseResult reduce;
  PhaseResult other;  ///< setup + cleanup + sampling

  Seconds total_time() const { return map.time + reduce.time + other.time; }
  Joules total_energy() const { return map.energy + reduce.energy + other.energy; }
  PhaseResult whole() const;
};

struct PhaseCost;  // perf/task_cost.hpp
struct JobCost;

/// The closed form's terms for one phase on one server at one
/// operating point. The closed form charges them as they are;
/// EventPricer splits them into per-task demands and floors its replay
/// at their `floor`.
struct PhaseTerms {
  int ntasks = 0;
  int active = 1;         ///< occupied slots: min(slots, tasks, cores), at least 1
  double ipc = 1.0;
  Seconds task_s = 0;     ///< one task's compute at the phase-mean instruction count
  Seconds launch_s = 0;   ///< task launch, paid once per wave
  Seconds cpu = 0;        ///< wave-stretched compute + launch + serialized master
  Seconds io = 0;         ///< shared-disk transfer time
  Seconds net = 0;        ///< NIC transfer time
  Seconds floor = 0;      ///< fixed time + max(cpu, io, net) + overlap penalty of the rest
  Seconds backoff = 0;    ///< retry backoff, amortized over the active slots
  double dram_bytes = 0;  ///< DRAM traffic the power model charges
};

class PerfModel {
 public:
  PerfModel(arch::ServerConfig server, hdfs::DfsConfig dfs = {}, ClusterConfig cluster = {});

  /// Prices `trace` at frequency `freq` with `slots` concurrent task
  /// slots (the paper's "number of mappers = number of cores").
  /// `slots` defaults to the server's core count.
  RunResult price(const mr::JobTrace& trace, Hertz freq, int slots = 0) const;

  /// extract_job_cost on this model's server, DFS and cluster.
  JobCost extract(const mr::JobTrace& trace, int slots) const;

  /// The terms of phase `pc`, its network term at `net_bytes_per_s`.
  /// The phase's volumes are sums of each task's totals, in task order.
  PhaseTerms phase_terms(const PhaseCost& pc, Hertz freq, int slots, double net_bytes_per_s) const;

  /// The closed-form phase on the paper's 1GbE NIC: its floor, plus
  /// the retry backoff amortized over the active slots.
  PhaseResult price_phase(const PhaseCost& pc, Hertz freq, int slots) const;

  /// Dynamic power of a phase whose work keeps the node busy for
  /// `busy_s` seconds (the paper's idle-subtracted Watts-up reading).
  Watts dynamic_power(const PhaseTerms& t, Hertz freq, Seconds busy_s) const;

  /// The overlap penalty of three concurrent demands: the part of the
  /// two shorter ones that cannot hide under the longest.
  Seconds overlap_s(Seconds cpu, Seconds io, Seconds net) const;

  const arch::ServerConfig& server() const { return server_; }
  const ClusterConfig& cluster() const { return cluster_; }
  const arch::StorageModel& storage() const { return storage_; }

 private:
  arch::ServerConfig server_;
  hdfs::DfsConfig dfs_;
  ClusterConfig cluster_;
  arch::CoreModel core_model_;
  arch::StorageModel storage_;
  power::PowerModel power_;
  double line_rate_;  ///< the 1GbE NIC's bytes/s on this server
};

}  // namespace bvl::perf
