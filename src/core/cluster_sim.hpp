// Heterogeneous-cluster mix simulation: the cloud-provider view of
// Sec. 3.5. plan_jobs answers "where should this job go"; this module
// answers "what happens to a whole queue of jobs on a concrete rack".
//
// The rack is one discrete-event timeline (sim/event_queue): every
// node is a slot pool plus a shared disk and NIC, every job is a bag
// of per-task demands (perf::EventPricer::job_sim), and a placement
// policy dispatches tasks — not whole jobs — onto free slots. Jobs
// therefore share nodes at slot granularity, one job's tasks may
// split across big and little nodes (the paper's actual heterogeneity
// promise), and makespan/energy/utilization all emerge from the
// replayed timeline instead of a per-job closed form.
// Service mode (simulate_service) asks the open-stream question the
// batch replay cannot: jobs arrive forever — seeded Poisson thinned by
// a diurnal load curve, fanned across multi-tenant fair-share queues —
// and the answer is steady-state p50/p95/p99 latency, queueing delay,
// per-class utilization and energy per job after warm-up truncation,
// instead of a single mix's makespan. Dispatch is incremental
// (est-end ordered node indexes, O(log n) selection), so racks of
// hundreds to thousands of nodes replay without a per-job rebuild.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/characterizer.hpp"
#include "core/classifier.hpp"
#include "core/placement/policy.hpp"
#include "core/scheduler.hpp"
#include "power/freq_plan.hpp"
#include "power/governor.hpp"
#include "sim/network/fabric.hpp"
#include "sim/network/topology.hpp"
#include "sim/workload/arrival.hpp"
#include "sim/workload/fair_share.hpp"

namespace bvl::core {

/// One physical node of the simulated rack.
struct NodeSpec {
  arch::ServerConfig server;
  int count = 1;  ///< identical nodes of this type
};

/// Hadoop's per-tasktracker concurrent-task cap
/// (mapred.tasktracker.*.tasks.maximum). Replaces the old hardcoded
/// `std::min(8, server.cores)` buried in job_cost.
inline constexpr int kDefaultTaskSlotsPerNode = 8;

struct MixOptions {
  /// Task slots per node; 0 derives min(server cores,
  /// kDefaultTaskSlotsPerNode). The effective per-job width is further
  /// capped by the job's own task count (which the input size and
  /// block size determine), so a small job never "occupies" slots it
  /// cannot fill.
  int slots_per_node = 0;
  /// Fraction of a job's maps that must finish before its reduces
  /// become dispatchable (Hadoop reduce slowstart). 1.0 = serial
  /// phases, matching single-job pricing.
  double reduce_slowstart = 1.0;
  /// Shuffle fabric. Default (modeled = false): each node's whole
  /// shuffle volume is charged at its own NIC queue — the analytic
  /// term, byte-identical to the pre-fabric timeline. When modeled,
  /// each reduce's shuffle is decomposed into per-source flows
  /// (weighted by where the job's maps actually ran) and replayed
  /// through NIC/ToR/spine links; an empty topology.rack_of means one
  /// rack spanning the whole rack list, otherwise topology.rack_of
  /// must match the flat node order of the expanded rack.
  sim::FabricOptions fabric;
  /// DVFS governor and rack power cap (power/governor.hpp). Default
  /// inactive: the replay takes the historical fixed-frequency path
  /// with zero extra events, byte-identical to every golden. When
  /// active, each node carries its own frequency timeline
  /// (power::FreqPlan): governors step its DVFS level on a fixed
  /// control period from observed slot utilization, the cap loop
  /// throttles nodes down (and defers task admission at the bottom
  /// level) so the modeled rack draw never exceeds rack_cap_w at any
  /// event timestamp, and in-flight compute legs are repriced
  /// mid-flight at every level change.
  power::PowerPlanSpec power;
};

/// Resolved slot count for one node type under `opts`.
int task_slots_for(const arch::ServerConfig& server, const MixOptions& opts);

/// Where and when one job ran.
struct JobSchedule {
  JobRequest job;
  AppClass app_class = AppClass::kHybrid;
  std::string node_type;  ///< type that ran the plurality of its tasks
  int node_index = 0;     ///< instance (within type) that ran the most
  Seconds start = 0;      ///< first task dispatch
  Seconds finish = 0;     ///< last task completion + setup/cleanup
  Joules energy = 0;
  /// Map+reduce tasks by the node type that executed them; a job
  /// listed under two types was split across big and little nodes.
  std::map<std::string, int> tasks_by_type;

  bool split_across_types() const { return tasks_by_type.size() > 1; }
};

/// Per-node occupancy over the replayed timeline.
struct NodeUtilization {
  std::string node_type;
  int node_index = 0;
  int slots = 0;
  int tasks_run = 0;
  Seconds busy_slot_s = 0;   ///< integral of occupied slots over time
  Seconds disk_busy_s = 0;
  /// Dynamic energy of the tasks this node ran, plus its idle power
  /// burned over the whole makespan (a provisioned node draws idle
  /// watts whether or not it has work — the term that makes rack
  /// composition an energy decision, not just a placement one).
  Joules energy = 0;
  double slot_utilization = 0;  ///< busy_slot_s / (slots * timeline end)
};

/// Rack power telemetry of one replay under an active
/// MixOptions::power. Inactive specs leave it default (active =
/// false): the replay took the historical path with zero extra
/// events. The per-job / per-node energy fields of the enclosing
/// result keep their nominal (fixed-frequency) attribution either
/// way; `metered_energy` is the authoritative wall figure once
/// frequency actually moved.
struct PowerStats {
  bool active = false;
  Watts cap_w = 0;            ///< the enforced cap (0 = uncapped)
  /// Integral of the modeled rack draw (power::PowerModel::node_draw
  /// summed over nodes, idle floor included) over the whole replay.
  Joules metered_energy = 0;
  Watts peak_draw = 0;        ///< max draw observed at any event timestamp
  /// Invariant flag: true iff the modeled draw ever exceeded cap_w.
  /// The cap loop enforces admission synchronously, so this must stay
  /// false — the property tests and the powercap figure assert it.
  bool cap_exceeded = false;
  int level_changes = 0;      ///< DVFS transitions across all nodes
  /// Realized per-node frequency timelines, flat node order.
  std::vector<power::FreqPlan> node_plans;
};

struct MixResult {
  std::vector<JobSchedule> schedule;
  std::vector<NodeUtilization> nodes;
  Seconds makespan = 0;
  /// Wall energy of the rack: per-job dynamic energy (the schedule
  /// entries) plus every provisioned node's idle power over the
  /// makespan. Equals the sum of NodeUtilization::energy plus the
  /// jobs' setup/cleanup energy.
  Joules total_energy = 0;
  /// Flow-conservation ledger of the modeled fabric (modeled = false
  /// when the run used the infinite-fabric default);
  /// spine_utilization is spine busy time over the makespan.
  sim::FabricStats fabric;
  /// Governor/cap telemetry (default when MixOptions::power inactive).
  PowerStats power;

  /// Operational cost of the whole mix (energy x makespan^x), routed
  /// through the shared core::edxp_value validation.
  double edxp(int x) const;
};

// MixPolicy (and its to_string / mix_policy_from_string round trip)
// lives in core/placement/policy.hpp — placement is a pluggable
// subsystem and both replays delegate the per-task decision to a
// placement::PlacementPolicy built from the selected MixPolicy.

/// Replays `jobs` (all submitted at t=0, task-dispatched in order) on
/// the `rack` under `policy`. Per-task demands and nominal energies
/// come from the event pricer on each node type.
///
/// `exec_threads` bounds how many characterizations of the mix's
/// replay_specs run at once before the (deterministic, single-threaded)
/// timeline replay — the engine runs dominate the cost. 0 = hardware
/// concurrency, 1 = one at a time; no thread starts when every trace is
/// already in memory or on disk (Characterizer::prefetch). The schedule
/// is identical either way.
MixResult simulate_mix(Characterizer& ch, const std::vector<JobRequest>& jobs,
                       const std::vector<NodeSpec>& rack, MixPolicy policy,
                       int exec_threads = 0, const MixOptions& opts = {});

/// The paper's comparison racks under one idle-power envelope: the
/// all-Xeon rack (`big_nodes` nodes) sets the budget; the all-Atom
/// and half-budget heterogeneous racks match it as closely as whole
/// nodes allow (~3.4 Atoms per Xeon). Iso-power — not iso-count — is
/// the provisioning question the paper actually asks.
std::vector<std::vector<NodeSpec>> comparison_racks(int big_nodes = 4);

// ---------------------------------------------------------------------------
// Open job-stream service simulation
// ---------------------------------------------------------------------------

/// One tenant of the open stream: its fair-share identity plus the
/// job mix its arrivals sample from (uniformly, seeded).
/// Every spec whose trace a replay of `jobs` reads: each distinct
/// (workload, input) job spec in first-seen order, then the classifier
/// reference of each workload (classify_workload) that none of those
/// already is.
std::vector<RunSpec> replay_specs(const std::vector<JobRequest>& jobs);

struct TenantWorkload {
  sim::TenantSpec tenant;
  std::vector<JobRequest> mix;
};

struct ServiceOptions {
  /// Mean arrival rate at the diurnal baseline, jobs per second
  /// across all tenants (each arrival is assigned to a tenant by
  /// arrival_share weight).
  double arrival_rate = 0.01;
  sim::DiurnalCurve diurnal;  ///< amplitude 0 = flat Poisson stream
  /// Arrivals stop at `horizon`; in-flight jobs drain afterwards so
  /// every measured job completes.
  Seconds horizon = 4 * 3600.0;
  /// Jobs arriving before `warmup` are simulated (they load the rack)
  /// but excluded from every steady-state metric; utilization and
  /// idle energy are integrated over [warmup, horizon] only.
  Seconds warmup = 0;
  std::uint64_t seed = 1;
  MixPolicy policy = MixPolicy::kClassAware;
  /// The rack options both replays share: slots per node, reduce
  /// slowstart, the shuffle fabric and the governor/power-cap plan.
  MixOptions mix;
};

/// Streaming distribution summary (from the P² sketches), flattened
/// to plain doubles so determinism tests can compare byte for byte.
struct LatencySummary {
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Per node-type occupancy over the measurement window.
struct ClassUtilization {
  std::string node_type;
  int nodes = 0;
  int slots_per_node = 0;
  int tasks_run = 0;          ///< over the whole replay, incl. warm-up
  double slot_utilization = 0;  ///< busy slot-seconds / capacity, window only
};

struct TenantServiceStats {
  std::string name;
  int jobs = 0;  ///< measured (post-warm-up) completed jobs
  double mean_sojourn_s = 0;
  /// Attained service in weight-normalized units — fairness checks
  /// compare these across equally-backlogged tenants.
  double virtual_time = 0;
};

struct ServiceResult {
  // Stream accounting.
  int arrivals = 0;       ///< every job generated, warm-up included
  int measured_jobs = 0;  ///< arrived in [warmup, horizon), completed
  Seconds window = 0;     ///< horizon - warmup
  double lambda_measured = 0;  ///< measured_jobs / window (jobs/s)

  // Steady-state latency (measured jobs only).
  LatencySummary sojourn;      ///< arrival -> job finalized
  LatencySummary queue_delay;  ///< arrival -> first task dispatched

  /// Little's law bookkeeping: `little_l` is the time-average number
  /// of measured jobs in system computed by integrating the live
  /// count on the event timeline; `little_lambda_w` is
  /// lambda_measured * mean sojourn. simulate_service asserts the two
  /// agree to float tolerance on every run — the timeline and the
  /// per-job accounting must describe the same system.
  double little_l = 0;
  double little_lambda_w = 0;

  // Energy over the window: dynamic energy of measured jobs plus
  // every provisioned node's idle draw.
  Joules dynamic_energy = 0;
  Joules idle_energy = 0;
  double energy_per_job = 0;

  std::vector<ClassUtilization> classes;
  std::vector<TenantServiceStats> tenants;
  std::uint64_t events_run = 0;
  /// Fabric ledger over the whole replay (warm-up included);
  /// spine_utilization uses the measurement window.
  sim::FabricStats fabric;
  /// Governor/cap telemetry over the whole replay (default when
  /// ServiceOptions::mix.power is inactive).
  PowerStats power;

  /// Service-level cost figure: energy per job x p99 sojourn^x — the
  /// open-stream analogue of the batch ED^xP, routed through the same
  /// core::edxp_value validation.
  double service_edxp(int x) const;
};

/// Replays an open job stream on `rack`: seeded Poisson arrivals
/// (thinned by `opts.diurnal`) are assigned to `tenants` by arrival
/// share, queued under strict-priority weighted fair sharing, and
/// dispatched at task granularity onto the rack under `opts.policy`
/// with O(log n) incremental node selection. `exec_threads` bounds
/// pre-characterization exactly as in simulate_mix; the timeline
/// replay itself is deterministic and single-threaded, so the full
/// ServiceResult is a pure function of (jobs mixes, rack, opts).
ServiceResult simulate_service(Characterizer& ch, const std::vector<TenantWorkload>& tenants,
                               const std::vector<NodeSpec>& rack, const ServiceOptions& opts,
                               int exec_threads = 0);

}  // namespace bvl::core
