// The pricer split: one extraction (perf/task_cost), two pricers.
//
//   AnalyticPricer — the paper-calibrated closed form (PerfModel::
//   price), retained bit-identical: every golden, EXPERIMENTS table,
//   and scheduler decision made against it stays valid.
//
//   EventPricer — replays the same per-task records on the sim kernel
//   (sim/event_queue, sim/resource): tasks queue on a slot pool, their
//   disk and NIC demands queue FIFO on shared devices, and wave
//   shapes, stragglers, and (optionally) map/shuffle slowstart overlap
//   emerge from the timeline. Both pricers share the calibrated
//   serialization economics: the replayed phase time is floored at the
//   closed form's `longest + overlap_penalty * rest`, so the event
//   path can only add time the analytic model cannot see (queueing,
//   wave quantization, straggler tails) — which keeps the two within a
//   few percent on fault-free single-job traces while letting them
//   diverge exactly where a timeline has more information.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perf/perf_model.hpp"
#include "perf/task_cost.hpp"
#include "power/freq_plan.hpp"
#include "sim/event_queue.hpp"
#include "sim/network/topology.hpp"
#include "sim/resource.hpp"

namespace bvl::perf {

enum class PricerKind {
  kAnalytic,  ///< closed-form phase model (the paper's methodology)
  kEvent,     ///< discrete-event per-task replay
};

std::string to_string(PricerKind kind);

/// A pricer turns a machine-independent JobTrace into per-phase
/// time/power/energy on one concrete server at one operating point.
class Pricer {
 public:
  virtual ~Pricer() = default;
  virtual PricerKind kind() const = 0;
  /// `slots` = concurrent task slots per node (0 = server core count).
  virtual RunResult price(const mr::JobTrace& trace, Hertz freq, int slots = 0) const = 0;
  virtual const arch::ServerConfig& server() const = 0;
};

class AnalyticPricer final : public Pricer {
 public:
  explicit AnalyticPricer(arch::ServerConfig server, hdfs::DfsConfig dfs = {},
                          ClusterConfig cluster = {})
      : model_(std::move(server), dfs, cluster) {}

  PricerKind kind() const override { return PricerKind::kAnalytic; }
  RunResult price(const mr::JobTrace& trace, Hertz freq, int slots = 0) const override {
    return model_.price(trace, freq, slots);
  }
  const arch::ServerConfig& server() const override { return model_.server(); }
  const PerfModel& model() const { return model_; }

 private:
  PerfModel model_;
};

struct EventOptions {
  /// Fraction of a job's map tasks that must complete before its
  /// reduce tasks become eligible (Hadoop's mapreduce.job.reduce.
  /// slowstart.completedmaps). 1.0 — the default — keeps the phases
  /// strictly serial, matching the closed form's additive phase
  /// times; Hadoop ships 0.05, which overlaps shuffle with the map
  /// tail. Phase floors are only applied in serial mode: once phases
  /// overlap, the replayed timeline is authoritative.
  double reduce_slowstart = 1.0;
  /// false (default): every task of a phase carries the phase-mean
  /// instruction count — the granularity the closed form (and its
  /// calibration) is defined at; per-task variation still enters
  /// through fault time factors, I/O volumes, and wave shape. true:
  /// replay each task's own instruction count (partition skew becomes
  /// visible, at the cost of drifting from the calibrated mean).
  bool per_task_cpu = false;
  /// Shuffle fabric. Default (modeled = false) charges each task's
  /// whole shuffle volume at one NIC ServiceQueue — today's analytic
  /// term. When modeled, the replayed node is node 0 of the topology:
  /// map-side HDFS traffic stays node-local while each reduce fetches
  /// uniformly from every topology node, so remote fractions of the
  /// shuffle traverse ToR/spine links and contend.
  sim::FabricOptions fabric;
};

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

  Seconds residency() const { return cpu_s + serial_s + backoff_s; }
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

class EventPricer final : public Pricer {
 public:
  explicit EventPricer(arch::ServerConfig server, hdfs::DfsConfig dfs = {},
                       ClusterConfig cluster = {}, EventOptions opts = {});

  PricerKind kind() const override { return PricerKind::kEvent; }
  RunResult price(const mr::JobTrace& trace, Hertz freq, int slots = 0) const override;
  const arch::ServerConfig& server() const override { return server_; }
  const EventOptions& options() const { return opts_; }

  /// Renders `trace` into per-task timeline demands (and prices it on
  /// a single node along the way). core/cluster_sim feeds these tasks
  /// to a multi-node, multi-job timeline.
  JobSim job_sim(const mr::JobTrace& trace, Hertz freq, int slots = 0) const;

  /// Prices `trace` under a time-varying frequency plan. A
  /// single-segment plan delegates to the scalar path and is
  /// guaranteed bit-identical to price(trace, plan.freq_at(0), slots)
  /// (tests/perf/test_plan_pricing.cpp pins this on every workload);
  /// a multi-segment plan replays the same per-task demands with each
  /// task's compute leg rescaled mid-flight at every segment boundary
  /// it straddles (I/O demands are frequency-independent), and the
  /// analytic phase floors are dropped — once frequency moves under a
  /// running job, the timeline is authoritative.
  RunResult price(const mr::JobTrace& trace, const power::FreqPlan& plan, int slots = 0) const;

  /// The plan-priced replay behind price(trace, plan, slots).
  JobSim job_sim(const mr::JobTrace& trace, const power::FreqPlan& plan, int slots = 0) const;

 private:
  struct DerivedPhase;
  DerivedPhase derive_phase(const PhaseCost& pc, Hertz freq, int slots) const;

  arch::ServerConfig server_;
  hdfs::DfsConfig dfs_;
  ClusterConfig cluster_;
  EventOptions opts_;
  arch::CoreModel core_model_;
  arch::StorageModel storage_;
  power::PowerModel power_;
  PerfModel analytic_;  ///< prices the task-less "other" phase
};

std::unique_ptr<Pricer> make_pricer(PricerKind kind, const arch::ServerConfig& server,
                                    const hdfs::DfsConfig& dfs = {},
                                    const ClusterConfig& cluster = {});

/// How a task's network demand reaches the wire. The channel receives
/// the task and a completion callback, and must eventually invoke the
/// callback exactly once; it is only called when the task has network
/// demand (nic_svc_s > 0). The default channel submits nic_svc_s to a
/// single NIC ServiceQueue; the fabric channel hands net_bytes to a
/// sim::FlowRouter instead.
using ShuffleChannel = std::function<void(const SimTask&, std::function<void()>)>;

/// Replays one task's demands on an already-held slot: compute starts
/// now, the disk demand queues FIFO on the shared device, the network
/// demand goes to `net` (a NIC queue, or the fabric hook), and
/// `on_complete` fires once all three finish plus the serial slice and
/// any retry backoff. Shared by EventPricer (single node) and the rack
/// replay core (core/replay) so a task means the same thing on both
/// timelines. The caller releases the slot in `on_complete`.
void replay_task_on_slot(sim::Simulation& sim, sim::ServiceQueue& disk, const SimTask& t,
                         const ShuffleChannel& net, std::function<void()> on_complete);

/// How a task's compute demand runs on the slot. The channel receives
/// the task and a completion callback it must eventually invoke
/// exactly once. The default channel is `sim.in(t.cpu_s, done)` — a
/// fixed-frequency delay; the frequency-domain channel (plan pricing
/// here, the governor/cap runtime in core/replay) walks segment
/// boundaries and rescales the remaining compute instead.
using ComputeChannel = std::function<void(const SimTask&, std::function<void()>)>;

/// Fully-channeled variant: both the compute and network legs are
/// delegated, with the same demand ordering as the fixed-frequency
/// overload (cpu, disk, network submitted at one instant; serial
/// tail + backoff after all three).
void replay_task_on_slot(sim::Simulation& sim, sim::ServiceQueue& disk, const SimTask& t,
                         const ComputeChannel& cpu, const ShuffleChannel& net,
                         std::function<void()> on_complete);

/// Wall-clock completion time of a compute demand started at `start`
/// under `plan`, where `dur_at(f)` is the demand's full duration at
/// frequency f. Progress accrues at rate 1/dur_at(f) per second
/// within each segment, so a demand straddling a boundary carries its
/// completed fraction across and reprices only the remainder — the
/// mid-flight rescaling rule shared by the plan pricer and the
/// cluster-sim frequency domains. Pure; exhaustively unit-tested.
Seconds plan_compute_finish(const power::FreqPlan& plan, Seconds start,
                            const std::function<Seconds(Hertz)>& dur_at);

}  // namespace bvl::perf
