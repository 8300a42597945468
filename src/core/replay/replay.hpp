// The replay core both rack timelines of core/cluster_sim drive: rack
// expansion with its fabric and power wiring, the profile table, task
// launch and completion, the placement scorer and the result folds,
// once. simulate_mix and simulate_service keep only their task source,
// candidate enumeration and accounting. Jobs are addressed by index,
// never by reference: the service stream appends to `jobs` while
// earlier jobs' tasks are in flight.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster_sim.hpp"
#include "core/replay/power_runtime.hpp"

namespace bvl::core::replay {

/// Rejects MixOptions values neither replay can honour, naming the
/// caller (`where`) in the message.
void validate(const MixOptions& opts, const char* where);

/// Per-job state both replays keep. Driver-only bookkeeping (tenant,
/// arrival, per-node tallies) lives in the driver under the same index.
struct Job {
  std::size_t spec = 0;  ///< profile-table row
  AppClass cls = AppClass::kHybrid;
  bool prefers_big = false;
  int nmaps = 0;
  int maps_done = 0;
  int slowstart_after = 0;
  bool reduces_ready = false;  ///< slowstart reached: reduces may run
  int remaining = 0;           ///< tasks not yet completed
  Seconds first_start = std::numeric_limits<double>::infinity();
  Seconds last_finish = 0;
  Joules energy = 0;  ///< dynamic energy of the completed tasks
  std::vector<int> tasks_by_type;  ///< tasks started, by type id
  /// Map tasks by flat node id — the shuffle source weights: a reduce
  /// fetches from each node in proportion to the maps it ran there.
  /// Emptied when the job's last task completes: the replay reuses its
  /// nodes for later jobs' counts.
  std::map<std::size_t, int> maps_by_node;
  /// Total reduce-side fetch volume of the job (sum of reduce
  /// net_bytes) — the locality stake a map placement commits.
  double shuffle_bytes = 0;
};

/// The task-independent part of one node's ETF estimate at one
/// instant: how long a task would wait for a slot, and the disk and
/// NIC backlog it would still find once started.
struct EtfTerms {
  Seconds at = std::numeric_limits<double>::quiet_NaN();  ///< computed at; NaN = stale
  Seconds delay = 0;       ///< wait for the earliest slot (0 with one free)
  Seconds disk_delay = 0;  ///< disk backlog left at now + delay
  Seconds nic_delay = 0;   ///< NIC (or fabric ingress) backlog left at now + delay
  bool free = false;       ///< a slot is free now

  /// Estimated completion of `t` on this node: the slot wait, then
  /// compute in parallel with the remaining device backlogs, then the
  /// serial tail.
  Seconds est_finish(const perf::SimTask& t) const {
    return delay + (std::max({t.cpu_s, disk_delay + t.disk_svc_s, nic_delay + t.nic_svc_s}) +
                    t.serial_s + t.backoff_s);
  }
};

class Replay;

/// The replay's nodes as placement candidates, each scored from its
/// cached ETF terms (Replay::etf). A driver's subclass supplies all()
/// in its historical scan order (placement ties break to the first
/// candidate).
class Candidates : public placement::CandidateSource {
 public:
  explicit Candidates(const Replay& replay);
  /// Sets the task the next all()/at() calls score.
  void bind(const TaskRef& tr);
  placement::Candidate at(std::size_t flat) override { return make(flat); }

 protected:
  placement::Candidate make(std::size_t flat) const;
  /// The bound task as rendered for `flat`'s node type.
  const perf::SimTask& task_on(std::size_t flat) const;

  const Replay& replay_;
  std::vector<const perf::SimTask*> task_;  ///< the bound task, per node type
  std::vector<placement::Candidate> scratch_;
};

class Replay {
 public:
  /// Expands `rack` into the type table and flat node list, attaches
  /// the fabric and power runtime `opts` asks for, pre-characterizes
  /// replay_specs(specs) at most `exec_threads` at a time
  /// (Characterizer::prefetch) and renders each distinct (workload,
  /// input) of `specs` on every node type.
  Replay(Characterizer& ch, const std::vector<NodeSpec>& rack,
         const std::vector<JobRequest>& specs, const MixOptions& opts, MixPolicy policy,
         int exec_threads, const char* where);
  Replay(const Replay&) = delete;  // scheduled events capture `this`
  Replay& operator=(const Replay&) = delete;

  sim::Simulation sim;
  std::vector<const arch::ServerConfig*> types;  ///< distinct node types, first-seen order
  std::vector<Node> nodes;                       ///< flat node order
  std::vector<bool> is_big;                      ///< per node: the big (Xeon-class) type
  std::vector<int> rack_of;  ///< per node: fabric rack (0 everywhere when unmodeled)
  std::unique_ptr<sim::Fabric> fabric;  ///< null: the infinite-fabric default
  /// Frequency domains: only constructed when the governor/cap spec is
  /// active, so the default replay schedules zero extra events.
  std::unique_ptr<PowerRuntime> power;
  std::vector<Job> jobs;

  /// Driver hooks, set once before the run. A completion first retires
  /// the task in the core (energy, phase bookkeeping, estimate, slot,
  /// rack draw), then calls on_task_done, then dispatch.
  std::function<void(std::size_t job, int phase, std::size_t flat)> on_task_done;
  std::function<void()> dispatch;

  /// Appends a job for `req` (one of the constructor's specs); returns its index.
  std::size_t add_job(const JobRequest& req);
  /// Task `task` of `phase` of `job`, with the next round-robin target.
  TaskRef task_ref(std::size_t job, int phase, std::size_t task);
  /// `job`'s tasks rendered for node type `type` at the nominal frequency.
  const perf::JobSim& profile(std::size_t job, int type) const;
  const perf::SimTask& task(const TaskRef& tr, int type) const;

  /// `flat`'s ETF terms at sim.now(), recomputed when first read at a
  /// new instant or after the node's own start_task or task_done. The
  /// ETF signal counts the wait for a full node's earliest slot, which
  /// lets the dispatcher keep a task *pending* for a fast node about to
  /// free rather than strand it on a slow free one.
  const EtfTerms& etf(std::size_t flat) const {
    const EtfTerms& e = etf_[flat];
    if (e.at != sim.now()) refresh_etf(flat);
    return e;
  }
  /// Advances on every start_task, every task_done and every power
  /// level change: at one instant, nothing else changes what pick()
  /// and admit() read, so a task deferred at the same (now, epoch)
  /// would be deferred again, and no node's terms have changed.
  std::uint64_t epoch() const {
    return events_ + (power != nullptr ? static_cast<std::uint64_t>(power->level_changes()) : 0);
  }
  /// The placement policy pick() consults.
  const placement::PlacementPolicy& policy() const { return *policy_; }
  /// The placement policy's node for `tr` among `candidates`, or
  /// placement::kNoNode to defer. May name a full node: the ETF
  /// "worth waiting for" signal, on which the driver defers too.
  std::size_t pick(const TaskRef& tr, Candidates& candidates);
  /// Cap admission gate (always true without a power runtime).
  bool admit(std::size_t flat) { return power == nullptr || power->admit(flat); }
  /// Takes a slot on `flat` and replays `tr` there: compute in the
  /// node's frequency domain (or at the nominal frequency), disk on
  /// the node's queue, network on its NIC (or through the fabric).
  void start_task(const TaskRef& tr, std::size_t flat);

  /// Type that ran the plurality of `job`'s tasks (first wins ties),
  /// which reporting names and setup/cleanup is charged on.
  int primary_type(const Job& job) const;
  /// The fabric ledger, spine busy time normalized by `window`.
  sim::FabricStats fabric_stats(Seconds window) const;
  /// Rack power telemetry up to now (default when no runtime ran).
  PowerStats power_stats();

 private:
  void task_done(std::size_t flat, std::size_t job, int phase, const perf::SimTask& t);
  /// Counts one more of `job`'s maps on `flat`, in a spare map node
  /// when there is one.
  void count_map(Job& job, std::size_t flat);
  void refresh_etf(std::size_t flat) const;
  /// Marks `flat`'s ETF terms stale. Besides the clock, only the
  /// node's own start_task (slot, end estimate, disk and NIC or fabric
  /// submissions) and task_done (estimate, slot) change their inputs:
  /// Fabric::send claims every link of a flow, the destination ingress
  /// included, at send time, and only a task starting on a node sends
  /// to its ingress.
  void invalidate_etf(std::size_t flat) {
    etf_[flat].at = std::numeric_limits<double>::quiet_NaN();
  }

  std::string where_;
  double slowstart_;
  std::unique_ptr<sim::FlowRouter> router_;  ///< non-null iff fabric is
  /// A reduce's shuffle sources, rebuilt by each fabric network leg.
  std::vector<std::pair<int, double>> sources_;
  /// Nodes of finished jobs' maps_by_node, for count_map to reuse.
  std::vector<std::map<std::size_t, int>::node_type> spare_map_nodes_;
  std::unique_ptr<placement::PlacementPolicy> policy_;
  /// The profile table. Rows are distinct (workload, input) specs;
  /// renders_[row * types + type][0] is the nominal-frequency render,
  /// [.][1 + level] the render at each DVFS level (power runtime only;
  /// the compute-leg repricing source — I/O demands are frequency-
  /// independent, so only cpu_s differs across levels).
  std::map<std::pair<int, Bytes>, std::size_t> spec_row_;
  std::vector<AppClass> row_class_;
  std::vector<bool> row_prefers_big_;  ///< per row: the EDP class schedule uses the big type
  std::vector<std::vector<perf::JobSim>> renders_;
  std::size_t rr_counter_ = 0;
  mutable std::vector<EtfTerms> etf_;  ///< per node, refreshed lazily
  std::uint64_t events_ = 0;           ///< task starts and completions
};

inline Candidates::Candidates(const Replay& replay)
    : replay_(replay), task_(replay.types.size(), nullptr) {}

inline const perf::SimTask& Candidates::task_on(std::size_t flat) const {
  return *task_[static_cast<std::size_t>(replay_.nodes[flat].type_id)];
}

/// Batch-replay candidate source: the nodes in flat order, the
/// historical full-scan order the goldens pin (placement ties break to
/// the first candidate), less the idle nodes that cannot win. A node
/// that is free with no disk and no NIC (or fabric ingress) backlog at
/// now is idle: its terms are {delay 0, disk 0, nic 0, free}, so every
/// task scores it exactly like every other idle node of its (type,
/// rack) group, and a score-determined policy only ever picks the
/// group's first. The list holds that first idle node of each group
/// plus every full or backlogged node; under any other policy it holds
/// every node. It is rebuilt only when (now, epoch) moves, and each
/// all() rescores only the list, writing `free` and `est_finish`.
class FlatCandidateSource final : public Candidates {
 public:
  explicit FlatCandidateSource(const Replay& replay);
  const std::vector<placement::Candidate>& all() override;

 private:
  void collect();

  bool collapse_;                   ///< the policy is score-determined
  std::vector<std::size_t> group_;  ///< per node: its (type, rack) group
  std::vector<bool> kept_;          ///< per group: its idle node is listed
  Seconds at_ = std::numeric_limits<double>::quiet_NaN();  ///< the list's now
  std::uint64_t epoch_ = 0;                                ///< the list's epoch
};

}  // namespace bvl::core::replay
