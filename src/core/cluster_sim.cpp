#include "core/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <utility>

#include "core/metrics.hpp"
#include "core/replay/replay.hpp"
#include "sim/workload/quantile.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bvl::core {

namespace {

using replay::Node;
using replay::TaskRef;

/// A batch task awaiting dispatch, with its decision class: the tasks
/// one deferral stamp covers.
struct PendingTask {
  TaskRef tr;
  std::size_t cls = 0;  ///< index into simulate_mix's deferral stamps
};

/// The instant and replay epoch of a decision class's last deferral.
struct DeferralStamp {
  Seconds at = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t epoch = 0;
};

}  // namespace

int task_slots_for(const arch::ServerConfig& server, const MixOptions& opts) {
  int cap = opts.slots_per_node > 0 ? opts.slots_per_node : kDefaultTaskSlotsPerNode;
  return std::max(1, std::min(server.cores, cap));
}

double MixResult::edxp(int x) const { return edxp_value(total_energy, makespan, x); }

std::vector<RunSpec> replay_specs(const std::vector<JobRequest>& jobs) {
  std::vector<RunSpec> out;
  std::set<std::pair<int, Bytes>> seen;
  for (const JobRequest& job : jobs) {
    if (!seen.emplace(static_cast<int>(job.workload), job.input_size).second) continue;
    RunSpec spec;
    spec.workload = job.workload;
    spec.input_size = job.input_size;
    out.push_back(spec);
  }
  const std::size_t distinct = out.size();
  for (std::size_t i = 0; i < distinct; ++i) {
    const RunSpec ref = classifier_spec(out[i].workload);
    if (seen.emplace(static_cast<int>(ref.workload), ref.input_size).second) out.push_back(ref);
  }
  return out;
}

MixResult simulate_mix(Characterizer& ch, const std::vector<JobRequest>& jobs,
                       const std::vector<NodeSpec>& rack, MixPolicy policy, int exec_threads,
                       const MixOptions& opts) {
  replay::Replay r(ch, rack, jobs, opts, policy, exec_threads, "simulate_mix");

  // ---- Jobs + the task queue (job order, maps before reduces) ----
  // A task's decision class is (profile row, phase, task index) under a
  // score-determined policy: such tasks read the same render on every
  // node type and share prefers_big, so pick() cannot tell them apart.
  // Under any other policy it is (job, phase, task index), the task.
  // A job's tasks, maps then reduces, are classes first, first + 1, ...:
  // fresh ones, or under a shared policy those of its row's first job.
  const bool shared = r.policy().score_determined();
  constexpr std::size_t kNoClass = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> row_first;  ///< per profile row: its first class
  std::size_t classes = 0;
  std::vector<PendingTask> pending;
  for (const JobRequest& job : jobs) {
    std::size_t j = r.add_job(job);
    const perf::JobSim& p = r.profile(j, 0);
    std::size_t first = classes;
    if (shared) {
      const std::size_t row = r.jobs[j].spec;
      if (row_first.size() <= row) row_first.resize(row + 1, kNoClass);
      if (row_first[row] == kNoClass) row_first[row] = classes;
      first = row_first[row];
    }
    const std::size_t maps = p.map_tasks.size();
    const std::size_t tasks = maps + p.reduce_tasks.size();
    if (first == classes) classes += tasks;
    for (std::size_t i = 0; i < tasks; ++i) {
      pending.push_back({i < maps ? r.task_ref(j, 0, i) : r.task_ref(j, 1, i - maps), first + i});
    }
  }
  std::vector<DeferralStamp> stamps(classes);
  /// Tasks by job and flat node id (job-major), for the schedule's
  /// node_index.
  const std::size_t nnodes = r.nodes.size();
  std::vector<int> tasks_by_node(jobs.size() * nnodes, 0);

  // The pluggable placement layer: the policy object scores the
  // candidates this source enumerates (flat order — the historical
  // scan order, so ties land on the same node the inline code chose —
  // less idle nodes that cannot win). kNoNode = nothing suitable free;
  // a full pick = defer the task until a completion re-runs dispatch
  // (safe: a full node implies a running task whose completion
  // re-enters the dispatcher). A deferral stamps the task's class, and
  // no task of that class is re-scored until the clock or the replay
  // epoch moves: pick() and admit() read nothing else, and a refused
  // admit() leaves its node at the bottom level, so they would defer
  // it again.
  replay::FlatCandidateSource candidates(r);
  int tasks_left = static_cast<int>(pending.size());
  r.on_task_done = [&](std::size_t, int, std::size_t) { --tasks_left; };
  r.dispatch = [&] {
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = pending.begin(); it != pending.end();) {
        DeferralStamp& stamp = stamps[it->cls];
        if ((it->tr.phase == 1 && !r.jobs[it->tr.job].reduces_ready) ||
            (stamp.at == r.sim.now() && stamp.epoch == r.epoch())) {
          ++it;
          continue;
        }
        std::size_t flat = r.pick(it->tr, candidates);
        if (flat == placement::kNoNode || !r.nodes[flat].has_free_slot() || !r.admit(flat)) {
          // Nothing suitable, the best choice is a full node worth
          // waiting for (ETF), or the cap defers admission: leave the
          // task pending; the next task completion (or control tick)
          // re-runs dispatch.
          stamp = {r.sim.now(), r.epoch()};
          ++it;
          continue;
        }
        TaskRef tr = it->tr;
        it = pending.erase(it);
        tasks_by_node[tr.job * nnodes + flat] += 1;
        r.start_task(tr, flat);
        progress = true;
      }
    }
  };

  if (r.power != nullptr) r.power->begin([&] { return tasks_left > 0; }, [&] { r.dispatch(); });
  r.dispatch();
  r.sim.run();
  require(pending.empty(), "simulate_mix: undispatched tasks after replay");

  // ---- Collect job schedules and node utilization ----
  MixResult result;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const replay::Job& js = r.jobs[j];
    const int primary_type = r.primary_type(js);
    JobSchedule s;
    s.job = jobs[j];
    s.app_class = js.cls;
    s.node_type = r.types[static_cast<std::size_t>(primary_type)]->name;
    int node_best = -1;
    for (std::size_t flat = 0; flat < nnodes; ++flat) {
      const int count = tasks_by_node[j * nnodes + flat];
      if (count > 0 && r.nodes[flat].type_id == primary_type && count > node_best) {
        node_best = count;
        s.node_index = r.nodes[flat].index;
      }
    }
    s.start = js.first_start == std::numeric_limits<double>::infinity() ? 0 : js.first_start;
    // Setup/cleanup ("other" phase) is serialized with the job's
    // tasks and charged on the primary type.
    s.finish = js.last_finish + r.profile(j, primary_type).other_s;
    s.energy = js.energy + r.profile(j, primary_type).other_energy;
    for (std::size_t t = 0; t < r.types.size(); ++t) {
      if (js.tasks_by_type[t] > 0) s.tasks_by_type[r.types[t]->name] += js.tasks_by_type[t];
    }
    result.total_energy += s.energy;
    result.makespan = std::max(result.makespan, s.finish);
    result.schedule.push_back(std::move(s));
  }
  Seconds end = r.sim.now();
  for (const Node& n : r.nodes) {
    NodeUtilization u;
    u.node_type = n.server->name;
    u.node_index = n.index;
    u.slots = n.slots->slots();
    u.tasks_run = n.tasks_run;
    u.busy_slot_s = n.slots->busy_slot_seconds(end);
    u.disk_busy_s = n.disk->busy_s();
    // Per-task energies are *dynamic* (above-idle, the Watts-up
    // methodology), so a provisioned node additionally burns its idle
    // power for the whole makespan — the rack-level term that makes
    // the big-vs-little provisioning question interesting at all.
    Joules idle = n.server->power.system_idle_w * result.makespan;
    u.energy = n.energy + idle;
    u.slot_utilization = end > 0 ? u.busy_slot_s / (static_cast<double>(u.slots) * end) : 0.0;
    result.total_energy += idle;
    result.nodes.push_back(std::move(u));
  }
  result.fabric = r.fabric_stats(result.makespan);
  result.power = r.power_stats();
  return result;
}

namespace {

/// Service-only per-job state, indexed like replay::Replay::jobs: a
/// service job's lifetime is arrival -> last task -> finalize, not
/// "part of the one mix".
struct ServiceJob {
  int tenant = 0;
  bool measured = false;
  Seconds arrival = 0;
  bool reduces_enqueued = false;
};

/// Ordered node indexes for one (node type, fabric rack) group: the
/// incremental dispatcher consults set fronts instead of scanning the
/// rack, so a placement decision is O(log n) in rack size instead of
/// O(n). Without a modeled fabric every node is in rack 0 and the
/// groups degenerate to the historical per-type indexes, byte for
/// byte; with one, each policy sees the best node of every type in
/// EVERY rack — the granularity rack-local placement needs.
///
/// `free_nodes` orders nodes with a free slot by their absolute device
/// backlog (max of disk/nic free_at) — the part of the ETF estimate
/// that varies across free nodes of one type. `busy_nodes` orders full
/// nodes by their earliest estimated task end, the ETF wait term. Both
/// keys only change at task start/completion, exactly where reindex()
/// is called.
struct TypeIndex {
  std::set<std::pair<double, std::size_t>> free_nodes;
  std::set<std::pair<double, std::size_t>> busy_nodes;
};

/// Service-replay candidate source: the free and busy front of every
/// (type, rack) group, groups in type-major order — for one rack per
/// type this is exactly the historical "free front then busy front of
/// each type in type order" scan the service timeline always ran.
class IndexCandidateSource final : public replay::Candidates {
 public:
  IndexCandidateSource(const replay::Replay& r, const std::vector<TypeIndex>& index)
      : Candidates(r), index_(index) {}

  const std::vector<placement::Candidate>& all() override {
    scratch_.clear();
    for (const TypeIndex& ix : index_) {
      if (!ix.free_nodes.empty()) scratch_.push_back(make(ix.free_nodes.begin()->second));
      if (!ix.busy_nodes.empty()) scratch_.push_back(make(ix.busy_nodes.begin()->second));
    }
    return scratch_;
  }

 private:
  const std::vector<TypeIndex>& index_;
};

}  // namespace

double ServiceResult::service_edxp(int x) const { return edxp_value(energy_per_job, sojourn.p99, x); }

ServiceResult simulate_service(Characterizer& ch, const std::vector<TenantWorkload>& tenants,
                               const std::vector<NodeSpec>& rack, const ServiceOptions& opts,
                               int exec_threads) {
  require(!tenants.empty(), "simulate_service: no tenants");
  require(opts.arrival_rate > 0, "simulate_service: arrival_rate must be > 0");
  // An infinite horizon would keep the arrival stream open forever.
  require(std::isfinite(opts.horizon) && opts.horizon > 0,
          "simulate_service: horizon must be finite and > 0");
  require(opts.warmup >= 0 && opts.warmup < opts.horizon,
          "simulate_service: need 0 <= warmup < horizon");
  double total_share = 0;
  std::vector<sim::TenantSpec> tenant_specs;
  std::vector<JobRequest> specs;  ///< every mix entry of every tenant
  for (const auto& t : tenants) {
    require(!t.mix.empty(), "simulate_service: tenant with empty job mix");
    require(t.tenant.arrival_share >= 0, "simulate_service: negative arrival_share");
    total_share += t.tenant.arrival_share;
    tenant_specs.push_back(t.tenant);
    specs.insert(specs.end(), t.mix.begin(), t.mix.end());
  }
  require(total_share > 0, "simulate_service: all arrival shares are zero");
  // Built before the replay: it rejects a bad rate or diurnal curve
  // before any job is characterized.
  sim::ArrivalProcess arrivals_rng(opts.arrival_rate, opts.diurnal, opts.seed);

  replay::Replay r(ch, rack, specs, opts.mix, opts.policy, exec_threads, "simulate_service");
  sim::Simulation& sim = r.sim;
  const std::vector<Node>& nodes = r.nodes;

  // ---- Incremental per-(type, rack) node indexes ----
  // Rack granularity only exists when a fabric is modeled; otherwise
  // nracks_ix = 1 and the groups are the historical per-type indexes.
  const std::size_t nracks_ix =
      r.fabric != nullptr ? static_cast<std::size_t>(r.fabric->topology().racks()) : 1;
  std::vector<TypeIndex> index(r.types.size() * nracks_ix);
  auto group_of = [&](std::size_t flat) {
    return static_cast<std::size_t>(nodes[flat].type_id) * nracks_ix +
           static_cast<std::size_t>(r.rack_of[flat]);
  };
  std::vector<std::pair<double, std::size_t>> node_key;  ///< each node's key in its set
  std::vector<bool> node_in_free(nodes.size(), false);
  // Files `flat` under its current slot state and key. Its old entry's
  // node is extracted and refiled, so a refiling allocates nothing; the
  // initial filing finds no entry and inserts one.
  auto reindex = [&](std::size_t flat) {
    const Node& n = nodes[flat];
    TypeIndex& ix = index[group_of(flat)];
    auto entry = (node_in_free[flat] ? ix.free_nodes : ix.busy_nodes).extract(node_key[flat]);
    node_in_free[flat] = n.has_free_slot();
    if (node_in_free[flat]) {
      node_key[flat] = {std::max(n.disk->free_at(), n.nic_est->free_at()), flat};
    } else {
      node_key[flat] = {n.est_ends.empty() ? 0.0 : n.est_ends.front(), flat};
    }
    auto& to = node_in_free[flat] ? ix.free_nodes : ix.busy_nodes;
    if (entry.empty()) {
      to.insert(node_key[flat]);
    } else {
      entry.value() = node_key[flat];
      to.insert(std::move(entry));
    }
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    node_key.emplace_back(0.0, i);
    reindex(i);
  }

  // ---- Tenants, queues, streams ----
  sim::FairShareQueue fsq(std::move(tenant_specs));
  const int ntenants = static_cast<int>(tenants.size());

  // Tenant/mix picks draw from their own stream so adding a tenant
  // never perturbs the arrival *times*, only the assignment.
  Pcg32 pick_rng(opts.seed, 0x74656e616e74ULL);

  std::vector<ServiceJob> jobs;    ///< indexed like r.jobs
  std::vector<TaskRef> task_pool;  ///< FairShareQueue items index into this
  int tasks_outstanding = 0;  ///< enqueued, not yet completed (power ticks)
  bool stream_open = false;   ///< a future arrival is scheduled

  // ---- Steady-state accounting ----
  const Seconds window = opts.horizon - opts.warmup;
  sim::LatencySketch sojourn;
  sim::LatencySketch queue_delay;
  int arrivals = 0;
  int measured_jobs = 0;
  Joules dynamic_energy = 0;
  std::vector<int> tenant_jobs(static_cast<std::size_t>(ntenants), 0);
  std::vector<double> tenant_sojourn(static_cast<std::size_t>(ntenants), 0.0);
  // Little's-law timeline integral of the measured in-system count.
  int live_measured = 0;
  double l_integral = 0;
  Seconds l_last = 0;
  auto l_advance = [&] {
    l_integral += static_cast<double>(live_measured) * (sim.now() - l_last);
    l_last = sim.now();
  };

  // Utilization snapshots bracketing the measurement window.
  std::vector<Seconds> busy0(nodes.size(), 0), busy1(nodes.size(), 0);
  auto snapshot_at = [&](Seconds at, std::vector<Seconds>& busy) {
    sim.at(at, [&nodes, &busy, at] {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        busy[i] = nodes[i].slots->busy_slot_seconds(at);
      }
    });
  };
  snapshot_at(opts.warmup, busy0);
  snapshot_at(opts.horizon, busy1);

  // ---- Dispatch: fair-share order, incremental node selection ----
  // The pluggable placement layer: the ETF candidates the source
  // enumerates are the index fronts — the best free node of a group
  // is the one with the least device backlog, the best full node the
  // one whose earliest task-end estimate is soonest — in type-major
  // group order, the historical scan order. The policy then defers
  // (kNoNode) or names a node; a full pick means "worth waiting for"
  // and the driver leaves the task queued.
  IndexCandidateSource candidates(r, index);

  auto enqueue_tasks = [&](std::size_t ji, int phase, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      task_pool.push_back(r.task_ref(ji, phase, i));
      fsq.enqueue(jobs[ji].tenant, task_pool.size() - 1);
      ++tasks_outstanding;
    }
  };
  auto enqueue_reduces = [&](std::size_t ji) {
    if (jobs[ji].reduces_enqueued) return;
    jobs[ji].reduces_enqueued = true;
    enqueue_tasks(ji, 1, r.profile(ji, 0).reduce_tasks.size());
  };

  auto finalize_job = [&](std::size_t ji) {
    const ServiceJob& j = jobs[ji];
    const replay::Job& job = r.jobs[ji];
    if (!j.measured) return;
    l_advance();
    --live_measured;
    Seconds s = sim.now() - j.arrival;
    sojourn.add(s);
    Seconds first = job.first_start == std::numeric_limits<double>::infinity() ? sim.now()
                                                                               : job.first_start;
    queue_delay.add(first - j.arrival);
    dynamic_energy += job.energy;
    ++measured_jobs;
    tenant_jobs[static_cast<std::size_t>(j.tenant)] += 1;
    tenant_sojourn[static_cast<std::size_t>(j.tenant)] += s;
  };

  // Setup/cleanup serialized after the last task, charged on the
  // plurality type (same convention as the batch schedule; type 0 for
  // a job that ran no tasks).
  auto schedule_finalize = [&](std::size_t ji) {
    const perf::JobSim& p = r.profile(ji, r.primary_type(r.jobs[ji]));
    r.jobs[ji].energy += p.other_energy;
    sim.in(p.other_s, [&, ji] { finalize_job(ji); });
  };

  r.on_task_done = [&](std::size_t ji, int phase, std::size_t flat) {
    if (phase == 0 && r.jobs[ji].reduces_ready) enqueue_reduces(ji);
    --tasks_outstanding;
    reindex(flat);
    if (r.jobs[ji].remaining == 0) schedule_finalize(ji);
  };

  // Fair-share order with per-tenant skip flags: one tenant's
  // unplaceable head (wrong class, RR target busy, ETF defer) must not
  // block another tenant whose head fits right now. FIFO head-of-line
  // *within* a tenant is intended — that is the YARN queue semantics
  // the fair-share layer models. One flag buffer serves every pass
  // (start_task runs no callback, so dispatch never re-enters).
  std::vector<bool> skip;
  r.dispatch = [&] {
    skip.assign(static_cast<std::size_t>(ntenants), false);
    while (true) {
      int t = fsq.next_tenant_excluding(skip);
      if (t < 0) break;
      TaskRef tr = task_pool[fsq.front(t)];
      std::size_t flat = r.pick(tr, candidates);
      // The ETF winner may be a full node worth waiting for: defer (a
      // completion re-runs dispatch), as for a cap deferral.
      if (flat == placement::kNoNode || !nodes[flat].has_free_slot() || !r.admit(flat)) {
        skip[static_cast<std::size_t>(t)] = true;
        continue;
      }
      fsq.pop(t);
      fsq.charge(t, r.task(tr, nodes[flat].type_id).cpu_s);
      r.start_task(tr, flat);
      reindex(flat);
    }
  };

  // ---- The arrival stream ----
  auto pick_tenant = [&] {
    double draw = pick_rng.next_double() * total_share;
    double acc = 0;
    for (int t = 0; t < ntenants; ++t) {
      acc += tenants[static_cast<std::size_t>(t)].tenant.arrival_share;
      if (draw < acc) return t;
    }
    return ntenants - 1;
  };
  std::function<void(Seconds)> schedule_arrival;
  schedule_arrival = [&](Seconds at) {
    sim.at(at, [&, at] {
      int tenant = pick_tenant();
      const auto& mix = tenants[static_cast<std::size_t>(tenant)].mix;
      const JobRequest& req =
          mix[pick_rng.uniform(0, static_cast<std::uint64_t>(mix.size()) - 1)];

      std::size_t ji = r.add_job(req);
      const ServiceJob& j = jobs.emplace_back(ServiceJob{tenant, at >= opts.warmup, at});
      ++arrivals;
      if (j.measured) {
        l_advance();
        ++live_measured;
      }
      enqueue_tasks(ji, 0, r.profile(ji, 0).map_tasks.size());
      if (r.jobs[ji].reduces_ready) enqueue_reduces(ji);  // a map-less job
      // Degenerate job with no tasks at all: only setup/cleanup.
      if (r.jobs[ji].remaining == 0) schedule_finalize(ji);
      Seconds nxt = arrivals_rng.next_after(at);
      stream_open = nxt < opts.horizon;
      if (stream_open) schedule_arrival(nxt);
      r.dispatch();
    });
  };
  Seconds first_arrival = arrivals_rng.next_after(0);
  if (first_arrival < opts.horizon) {
    stream_open = true;
    schedule_arrival(first_arrival);
  }

  if (r.power != nullptr) {
    r.power->begin([&] { return stream_open || tasks_outstanding > 0; }, [&] { r.dispatch(); });
  }
  sim.run();
  require(fsq.empty(), "simulate_service: undispatched tasks after drain");

  // ---- Collect ----
  ServiceResult result;
  result.arrivals = arrivals;
  result.measured_jobs = measured_jobs;
  result.window = window;
  result.events_run = sim.events_run();
  if (measured_jobs > 0) {
    result.lambda_measured = static_cast<double>(measured_jobs) / window;
    result.sojourn = {sojourn.mean(), sojourn.p50(), sojourn.p95(), sojourn.p99(), sojourn.max()};
    result.queue_delay = {queue_delay.mean(), queue_delay.p50(), queue_delay.p95(),
                          queue_delay.p99(), queue_delay.max()};
    result.little_l = l_integral / window;
    result.little_lambda_w = result.lambda_measured * result.sojourn.mean;
    // Little's law as a bookkeeping identity: the timeline integral of
    // the in-system count and the per-job sojourn sum must describe
    // the same jobs; disagreement means a job was dropped or double
    // counted somewhere on the event path.
    double scale = std::max(1.0, std::max(result.little_l, result.little_lambda_w));
    require(std::abs(result.little_l - result.little_lambda_w) <= 1e-6 * scale,
            "simulate_service: Little's law violated (L != lambda * W)");
  }
  result.dynamic_energy = dynamic_energy;
  for (const Node& n : nodes) {
    result.idle_energy += n.server->power.system_idle_w * window;
  }
  if (measured_jobs > 0) {
    result.energy_per_job =
        (result.dynamic_energy + result.idle_energy) / static_cast<double>(measured_jobs);
  }
  for (std::size_t t = 0; t < r.types.size(); ++t) {
    ClassUtilization u;
    u.node_type = r.types[t]->name;
    u.slots_per_node = task_slots_for(*r.types[t], opts.mix);
    Seconds busy = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (static_cast<std::size_t>(nodes[i].type_id) != t) continue;
      u.nodes += 1;
      u.tasks_run += nodes[i].tasks_run;
      busy += busy1[i] - busy0[i];
    }
    double capacity = static_cast<double>(u.nodes) * u.slots_per_node * window;
    u.slot_utilization = capacity > 0 ? busy / capacity : 0.0;
    result.classes.push_back(std::move(u));
  }
  for (int t = 0; t < ntenants; ++t) {
    TenantServiceStats s;
    s.name = tenants[static_cast<std::size_t>(t)].tenant.name;
    s.jobs = tenant_jobs[static_cast<std::size_t>(t)];
    s.mean_sojourn_s = s.jobs > 0 ? tenant_sojourn[static_cast<std::size_t>(t)] / s.jobs : 0.0;
    s.virtual_time = fsq.virtual_time(t);
    result.tenants.push_back(std::move(s));
  }
  result.fabric = r.fabric_stats(window);
  result.power = r.power_stats();
  return result;
}

std::vector<std::vector<NodeSpec>> comparison_racks(int big_nodes) {
  require(big_nodes >= 2, "comparison_racks: need at least 2 big nodes");
  const arch::ServerConfig xeon = arch::xeon_e5_2420();
  const arch::ServerConfig atom = arch::atom_c2758();
  // Iso-power provisioning: the all-big rack sets the idle-power
  // budget and the other racks match it as closely as whole nodes
  // allow (the paper's framing — several little nodes replace one big
  // node under the same power envelope, not the same node count).
  const double budget_w = big_nodes * xeon.power.system_idle_w;
  auto atoms_for = [&](double watts) {
    return std::max(1, static_cast<int>(std::lround(watts / atom.power.system_idle_w)));
  };
  std::vector<std::vector<NodeSpec>> racks;
  racks.push_back({NodeSpec{xeon, big_nodes}});
  racks.push_back({NodeSpec{atom, atoms_for(budget_w)}});
  int hetero_big = big_nodes / 2;
  racks.push_back(
      {NodeSpec{xeon, hetero_big},
       NodeSpec{atom, atoms_for(budget_w - hetero_big * xeon.power.system_idle_w)}});
  return racks;
}

}  // namespace bvl::core
