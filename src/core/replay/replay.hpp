// The replay core both rack timelines of core/cluster_sim drive: rack
// expansion with its fabric and power wiring, the profile table, task
// launch and completion, the placement scorer and the result folds,
// once. simulate_mix and simulate_service keep only their task source,
// candidate enumeration and accounting. Jobs are addressed by index,
// never by reference: the service stream appends to `jobs` while
// earlier jobs' tasks are in flight.
#pragma once

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
  std::map<std::string, int> tasks_by_type;
  /// Map tasks by flat node id — the shuffle source weights: a reduce
  /// fetches from each node in proportion to the maps it ran there.
  std::map<std::size_t, int> maps_by_node;
  /// Total reduce-side fetch volume of the job (sum of reduce
  /// net_bytes) — the locality stake a map placement commits.
  double shuffle_bytes = 0;
};

class Replay;

/// The replay's nodes as placement candidates, each scored by the ETF
/// estimate both replays share (Replay::est_finish). A driver's
/// subclass supplies all() in its historical scan order (placement
/// ties break to the first candidate).
class Candidates : public placement::CandidateSource {
 public:
  explicit Candidates(const Replay& replay) : replay_(replay) {}
  /// Sets the task the next all()/at() calls score.
  void bind(const TaskRef& tr) { cur_ = &tr; }
  placement::Candidate at(std::size_t flat) override { return make(flat); }

 protected:
  placement::Candidate make(std::size_t flat) const;

  const Replay& replay_;
  const TaskRef* cur_ = nullptr;
  std::vector<placement::Candidate> scratch_;
};

class Replay {
 public:
  /// Expands `rack` into the type table and flat node list, attaches
  /// the fabric and power runtime `opts` asks for, pre-characterizes
  /// every distinct (workload, input) of `specs` on `exec_threads`
  /// workers and renders each on every node type.
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

  /// ETF signal: estimated completion of `tr` on `n`, counting the
  /// wait for `n`'s earliest slot when the node is full. Lets the
  /// dispatcher keep a task *pending* for a fast node about to free
  /// rather than strand it on a slow free one.
  Seconds est_finish(const TaskRef& tr, const Node& n) const;
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

  std::string where_;
  double slowstart_;
  std::unique_ptr<sim::FlowRouter> router_;  ///< non-null iff fabric is
  std::unique_ptr<placement::PlacementPolicy> policy_;
  /// The profile table. Rows are distinct (workload, input) specs;
  /// renders_[row * types + type][0] is the nominal-frequency render,
  /// [.][1 + level] the render at each DVFS level (power runtime only;
  /// the compute-leg repricing source — I/O demands are frequency-
  /// independent, so only cpu_s differs across levels).
  std::map<std::pair<int, Bytes>, std::size_t> spec_row_;
  std::vector<AppClass> row_class_;
  std::vector<std::vector<perf::JobSim>> renders_;
  std::size_t rr_counter_ = 0;
};

}  // namespace bvl::core::replay
