// The pricer split: one extraction (perf/task_cost), one closed form
// (perf/perf_model), two ways to charge it.
//
//   PerfModel — the paper-calibrated closed form behind every figure,
//   EXPERIMENTS table and scheduler decision; PRICES.golden pins it
//   bit for bit.
//
//   EventPricer — replays the same per-task records on the sim kernel
//   (sim/event_queue, sim/resource): tasks queue on a slot pool, their
//   disk and NIC demands queue FIFO on shared devices, and wave
//   shapes and stragglers emerge from the timeline. Map and reduce run
//   strictly in series, as the closed form's additive phase times do;
//   reduce slowstart overlap and a modeled shuffle fabric are options
//   of the rack replay (core::MixOptions), not of this single node.
//   Each task's demands are a share of the closed form's PhaseTerms,
//   and the replayed phase time is floored at the terms' floor, so the
//   event path can only add time the analytic model cannot see
//   (queueing, wave quantization, straggler tails) — which keeps the
//   two within a few percent on fault-free single-job traces while
//   letting them diverge exactly where a timeline has more information.
#pragma once

#include <vector>

#include "perf/perf_model.hpp"
#include "perf/task_cost.hpp"
#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/network/nic_preset.hpp"
#include "sim/resource.hpp"

namespace bvl::perf {

/// The closed form, named as a pricer beside EventPricer.
using AnalyticPricer = PerfModel;

/// One task's service demands on the replay timeline, plus its share
/// of the phase's dynamic energy (for cluster-level accounting).
struct SimTask {
  Seconds cpu_s = 0;      ///< slot residency: compute + launch + master share
  Seconds disk_svc_s = 0; ///< FIFO service demand on the shared disk
  Seconds nic_svc_s = 0;  ///< FIFO service demand on the NIC
  Seconds serial_s = 0;   ///< non-overlappable post-service slice
  Seconds backoff_s = 0;  ///< retry backoff held on the slot
  double net_bytes = 0;   ///< shuffle volume behind nic_svc_s (fabric routing)
  Joules energy = 0;      ///< share of phase dynamic energy
};

/// A job rendered for timeline replay on one server type: per-task
/// demands for map and reduce plus the closed-form "other" phase.
struct JobSim {
  std::vector<SimTask> map_tasks;
  std::vector<SimTask> reduce_tasks;
  Seconds other_s = 0;
  Joules other_energy = 0;
  RunResult priced;  ///< the single-node event-priced result
};

class EventPricer {
 public:
  /// `nic` sets the line rate every task's shuffle volume is charged
  /// at (one NIC ServiceQueue per node), as in the rack replay.
  explicit EventPricer(arch::ServerConfig server, hdfs::DfsConfig dfs = {},
                       ClusterConfig cluster = {},
                       sim::NicPresetId nic = sim::NicPresetId::k1GbE);

  /// `slots` = concurrent task slots per node (0 = server core count).
  RunResult price(const mr::JobTrace& trace, Hertz freq, int slots = 0) const;
  const arch::ServerConfig& server() const { return model_.server(); }

  /// Renders `trace` into per-task timeline demands (and prices it on
  /// a single node along the way). core/cluster_sim feeds these tasks
  /// to a multi-node, multi-job timeline.
  JobSim job_sim(const mr::JobTrace& trace, Hertz freq, int slots = 0) const;

 private:
  std::vector<SimTask> task_demands(const PhaseCost& pc, const PhaseTerms& t) const;

  PerfModel model_;
  double nic_rate_;  ///< the NIC preset's bytes/s on this server
};

/// How a task's compute demand runs on the slot. The channel receives
/// the task and a completion callback it must eventually invoke
/// exactly once: EventPricer's is a fixed-frequency `sim.in(t.cpu_s)`
/// delay; the rack replay's power runtime (core/replay) reprices the
/// unfinished fraction at every DVFS level change instead.
using ComputeChannel = sim::InlineFunction<void(const SimTask&, sim::Callback)>;

/// How a task's network demand reaches the wire. The channel receives
/// the task and a completion callback, and must eventually invoke the
/// callback exactly once; it is only called when the task has network
/// demand (nic_svc_s > 0). A NIC channel submits nic_svc_s to the
/// node's NIC ServiceQueue; the rack replay's fabric channel hands
/// net_bytes to a sim::FlowRouter instead.
using ShuffleChannel = sim::InlineFunction<void(const SimTask&, sim::Callback)>;

/// Replays one task's demands on an already-held slot: compute goes
/// to `cpu`, the disk demand queues FIFO on the shared device and the
/// network demand goes to `net`, all submitted at one instant;
/// `on_complete` fires once all three finish (they join on one
/// Simulation::join record) plus the serial slice and any retry
/// backoff. Shared by EventPricer (single node) and the rack replay
/// core (core/replay) so a task means the same thing on both
/// timelines. The caller releases the slot in `on_complete`.
void replay_task_on_slot(sim::Simulation& sim, sim::ServiceQueue& disk, const SimTask& t,
                         const ComputeChannel& cpu, const ShuffleChannel& net,
                         sim::Callback on_complete);

}  // namespace bvl::perf
