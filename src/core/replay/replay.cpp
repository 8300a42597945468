#include "core/replay/replay.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bvl::core::replay {

void validate(const MixOptions& opts, const char* where) {
  const std::string w(where);
  require(opts.reduce_slowstart > 0 && opts.reduce_slowstart <= 1.0,
          w + ": reduce_slowstart must be in (0, 1]");
  require(opts.slots_per_node >= 0, w + ": slots_per_node must be >= 0 (0 = derive)");
  // Written so NaN fails too: a negative or NaN cap would otherwise
  // read as "uncapped" (PowerPlanSpec::active() and admit() both test
  // rack_cap_w > 0) and silently disable the cap.
  require(opts.power.rack_cap_w >= 0, w + ": rack_cap_w must be >= 0 (0 = uncapped)");
}

placement::Candidate Candidates::make(std::size_t flat) const {
  const EtfTerms& e = replay_.etf(flat);
  return {flat, replay_.is_big[flat], e.free, replay_.rack_of[flat], e.est_finish(task_on(flat))};
}

void Candidates::bind(const TaskRef& tr) {
  for (std::size_t t = 0; t < task_.size(); ++t) task_[t] = &replay_.task(tr, static_cast<int>(t));
}

FlatCandidateSource::FlatCandidateSource(const Replay& replay)
    : Candidates(replay), collapse_(replay.policy().score_determined()) {
  const int racks = 1 + *std::max_element(replay.rack_of.begin(), replay.rack_of.end());
  for (std::size_t i = 0; i < replay.nodes.size(); ++i) {
    group_.push_back(static_cast<std::size_t>(replay.nodes[i].type_id * racks + replay.rack_of[i]));
  }
  kept_.resize(replay.types.size() * static_cast<std::size_t>(racks));
  scratch_.reserve(replay.nodes.size());
}

const std::vector<placement::Candidate>& FlatCandidateSource::all() {
  if (at_ != replay_.sim.now() || epoch_ != replay_.epoch()) collect();
  for (placement::Candidate& c : scratch_) {
    const EtfTerms& e = replay_.etf(c.flat);
    c.free = e.free;
    c.est_finish = e.est_finish(task_on(c.flat));
  }
  return scratch_;
}

void FlatCandidateSource::collect() {
  at_ = replay_.sim.now();
  epoch_ = replay_.epoch();
  scratch_.clear();
  std::fill(kept_.begin(), kept_.end(), false);
  for (std::size_t i = 0; i < group_.size(); ++i) {
    const EtfTerms& e = replay_.etf(i);
    if (collapse_ && e.free && e.disk_delay == 0 && e.nic_delay == 0) {
      if (kept_[group_[i]]) continue;
      kept_[group_[i]] = true;
    }
    scratch_.push_back({i, replay_.is_big[i], false, replay_.rack_of[i], 0});
  }
}

Replay::Replay(Characterizer& ch, const std::vector<NodeSpec>& rack,
               const std::vector<JobRequest>& specs, const MixOptions& opts, MixPolicy policy,
               int exec_threads, const char* where)
    : where_(where), slowstart_(opts.reduce_slowstart) {
  validate(opts, where);

  // ---- Expand the rack: distinct type table + flat node list ----
  for (const auto& spec : rack) {
    require(spec.count >= 1, where_ + ": node count must be >= 1");
    int type_id = -1;
    for (std::size_t t = 0; t < types.size(); ++t) {
      if (*types[t] == spec.server) type_id = static_cast<int>(t);
    }
    if (type_id < 0) {
      type_id = static_cast<int>(types.size());
      types.push_back(&spec.server);
    }
    for (int i = 0; i < spec.count; ++i) {
      Node n;
      n.server = &spec.server;
      n.type_id = type_id;
      n.index = i;
      n.slots = std::make_unique<sim::SlotPool>(sim, task_slots_for(spec.server, opts));
      n.est_ends.reserve(static_cast<std::size_t>(n.slots->slots()));
      n.disk = std::make_unique<sim::ServiceQueue>(sim);
      n.nic = std::make_unique<sim::ServiceQueue>(sim);
      n.nic_est = n.nic.get();
      nodes.push_back(std::move(n));
    }
  }
  require(!nodes.empty(), where_ + ": empty rack");
  etf_.resize(nodes.size());
  const std::string big = arch::xeon_e5_2420().name;
  for (const Node& n : nodes) is_big.push_back(n.server->name == big);
  rack_of.assign(nodes.size(), 0);

  // The modeled fabric, unless opts asks for the infinite-fabric
  // default. An empty topology means one rack spanning every node; an
  // explicit one must match the flat node order.
  if (opts.fabric.modeled) {
    sim::Topology topo = opts.fabric.topology;
    if (topo.rack_of.empty()) topo = sim::Topology::single_rack(static_cast<int>(nodes.size()));
    require(topo.nodes() == static_cast<int>(nodes.size()),
            where_ + ": fabric topology node count != rack node count");
    const sim::NicPreset& preset = sim::nic_preset(opts.fabric.nic_preset);
    preset.validate();
    std::vector<double> rates;
    rates.reserve(nodes.size());
    for (const Node& n : nodes) {
      rates.push_back(
          preset.endpoint_bytes_per_s(ch.cluster_config().net_mbps, n.server->network_efficiency));
    }
    fabric = std::make_unique<sim::Fabric>(sim, std::move(topo), std::move(rates));
    router_ = std::make_unique<sim::FlowRouter>(*fabric);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].nic_est = &fabric->ingress(static_cast<int>(i));
      rack_of[i] = fabric->rack_of(static_cast<int>(i));
    }
  }
  if (opts.power.active()) {
    power = std::make_unique<PowerRuntime>(sim, opts.power, nodes, RunSpec{}.freq, where);
  }
  policy_ = placement::make_placement_policy(policy, fabric.get());

  // ---- Pre-characterize every trace the replay reads ----
  // The engine runs dominate; the timeline replay only consumes cached
  // traces. A warm characterizer has them all and starts no thread.
  std::vector<RunSpec> distinct;
  for (const JobRequest& job : specs) {
    auto key = std::make_pair(static_cast<int>(job.workload), job.input_size);
    if (!spec_row_.emplace(key, distinct.size()).second) continue;
    RunSpec spec;
    spec.workload = job.workload;
    spec.input_size = job.input_size;
    distinct.push_back(spec);
  }
  ch.prefetch(replay_specs(specs), exec_threads);

  // ---- Render each distinct spec on each node type (and DVFS level) ----
  for (const RunSpec& spec : distinct) {
    const mr::JobTrace& trace = ch.trace(spec);
    row_class_.push_back(classify_workload(ch, spec.workload));
    row_prefers_big_.push_back(schedule_by_class(row_class_.back(), Goal::edp()).uses_xeon());
    for (const arch::ServerConfig* type : types) {
      const perf::EventPricer& pricer = ch.event_pricer(*type, opts.fabric.nic_preset);
      const int slots = task_slots_for(*type, opts);
      std::vector<perf::JobSim>& row = renders_.emplace_back();
      row.push_back(pricer.job_sim(trace, spec.freq, slots));
      for (int lvl = 0; power != nullptr && lvl < type->dvfs.levels(); ++lvl) {
        row.push_back(pricer.job_sim(trace, type->dvfs.level_freq(lvl), slots));
      }
    }
  }
}

std::size_t Replay::add_job(const JobRequest& req) {
  Job& job = jobs.emplace_back();
  job.spec = spec_row_.at({static_cast<int>(req.workload), req.input_size});
  job.cls = row_class_[job.spec];
  job.tasks_by_type.assign(types.size(), 0);
  job.prefers_big = row_prefers_big_[job.spec];
  const perf::JobSim& p = profile(jobs.size() - 1, 0);
  job.nmaps = static_cast<int>(p.map_tasks.size());
  for (const perf::SimTask& rt : p.reduce_tasks) job.shuffle_bytes += rt.net_bytes;
  job.slowstart_after = std::min(
      job.nmaps, static_cast<int>(std::ceil(slowstart_ * static_cast<double>(job.nmaps))));
  job.reduces_ready = job.nmaps == 0;
  job.remaining = job.nmaps + static_cast<int>(p.reduce_tasks.size());
  return jobs.size() - 1;
}

TaskRef Replay::task_ref(std::size_t job, int phase, std::size_t task) {
  return {job, phase, task, rr_counter_++ % nodes.size()};
}

const perf::JobSim& Replay::profile(std::size_t job, int type) const {
  return renders_[jobs[job].spec * types.size() + static_cast<std::size_t>(type)].front();
}

const perf::SimTask& Replay::task(const TaskRef& tr, int type) const {
  const perf::JobSim& p = profile(tr.job, type);
  return tr.phase == 0 ? p.map_tasks[tr.task] : p.reduce_tasks[tr.task];
}

void Replay::refresh_etf(std::size_t flat) const {
  const Node& n = nodes[flat];
  EtfTerms& e = etf_[flat];
  e.at = sim.now();
  e.free = n.has_free_slot();
  e.delay = n.est_slot_delay(e.at);
  const Seconds start = e.at + e.delay;
  e.disk_delay = std::max<Seconds>(0, n.disk->free_at() - start);
  e.nic_delay = std::max<Seconds>(0, n.nic_est->free_at() - start);
}

std::size_t Replay::pick(const TaskRef& tr, Candidates& candidates) {
  const Job& job = jobs[tr.job];
  placement::TaskContext tc;
  tc.phase = tr.phase;
  tc.prefers_big = job.prefers_big;
  tc.rr_node = tr.rr_node;
  tc.now = sim.now();
  tc.net_bytes = task(tr, 0).net_bytes;
  tc.job_shuffle_bytes = job.shuffle_bytes;
  tc.job_maps = job.nmaps;
  tc.maps_by_node = &job.maps_by_node;
  candidates.bind(tr);
  return policy_->pick(tc, candidates);
}

void Replay::start_task(const TaskRef& tr, std::size_t flat) {
  Node& n = nodes[flat];
  const perf::SimTask& t = task(tr, n.type_id);
  // Read while the slot is still free, so the estimate has no wait term.
  const Seconds est_end = sim.now() + etf(flat).est_finish(t);
  if (!n.slots->try_acquire()) throw Error(where_ + ": dispatched to a full node");
  Job& job = jobs[tr.job];
  job.first_start = std::min(job.first_start, sim.now());
  job.tasks_by_type[static_cast<std::size_t>(n.type_id)] += 1;
  if (tr.phase == 0) count_map(job, flat);
  n.tasks_run += 1;
  n.est_ends.insert(std::upper_bound(n.est_ends.begin(), n.est_ends.end(), est_end), est_end);
  if (power != nullptr) power->draw_changed(flat);

  // Compute leg: in the node's frequency domain when the power runtime
  // is on (repriced from the per-level renders on every level change),
  // else a fixed-frequency delay. Disk and network legs are
  // frequency-independent.
  perf::ComputeChannel cpu;
  if (power != nullptr) {
    const std::vector<perf::JobSim>* levels =
        &renders_[job.spec * types.size() + static_cast<std::size_t>(n.type_id)];
    cpu = [this, flat, levels, phase = tr.phase, i = tr.task](const perf::SimTask&,
                                                              sim::Callback done) {
      power->start_compute(flat, *levels, phase, i, std::move(done));
    };
  } else {
    cpu = [this](const perf::SimTask& task, sim::Callback done) {
      sim.in(task.cpu_s, std::move(done));
    };
  }
  // Network leg: the node's own NIC, or the fabric — maps keep their
  // HDFS traffic node-local, reduces fetch from every node that ran
  // one of the job's maps, weighted by how many.
  perf::ShuffleChannel net;
  if (router_ != nullptr) {
    net = [this, flat, ji = tr.job, phase = tr.phase](const perf::SimTask& task,
                                                      sim::Callback done) {
      sources_.clear();
      if (phase == 1) {
        for (const auto& [f, c] : jobs[ji].maps_by_node) {
          sources_.emplace_back(static_cast<int>(f), static_cast<double>(c));
        }
      }
      router_->shuffle(static_cast<int>(flat), sources_, task.net_bytes, std::move(done));
    };
  } else {
    net = [nic = n.nic.get()](const perf::SimTask& task, sim::Callback done) {
      nic->submit(task.nic_svc_s, std::move(done));
    };
  }
  perf::replay_task_on_slot(sim, *n.disk, t, cpu, net,
                            [this, flat, ji = tr.job, phase = tr.phase, &t] {
                              task_done(flat, ji, phase, t);
                            });
  invalidate_etf(flat);
  ++events_;
}

void Replay::count_map(Job& job, std::size_t flat) {
  auto at = job.maps_by_node.lower_bound(flat);
  if (at != job.maps_by_node.end() && at->first == flat) {
    ++at->second;
  } else if (spare_map_nodes_.empty()) {
    job.maps_by_node.emplace_hint(at, flat, 1);
  } else {
    auto entry = std::move(spare_map_nodes_.back());
    spare_map_nodes_.pop_back();
    entry.key() = flat;
    entry.mapped() = 1;
    job.maps_by_node.insert(at, std::move(entry));
  }
}

void Replay::task_done(std::size_t flat, std::size_t ji, int phase, const perf::SimTask& t) {
  Node& n = nodes[flat];
  Job& job = jobs[ji];
  n.energy += t.energy;
  job.energy += t.energy;
  job.last_finish = std::max(job.last_finish, sim.now());
  if (--job.remaining == 0) {
    while (!job.maps_by_node.empty()) {
      spare_map_nodes_.push_back(job.maps_by_node.extract(job.maps_by_node.begin()));
    }
  }
  if (phase == 0 && ++job.maps_done >= job.slowstart_after) job.reduces_ready = true;
  n.est_ends.erase(n.est_ends.begin());
  n.slots->release();
  // Two completions can share a timestamp: the terms read by the first
  // one's dispatch are stale for this node now.
  invalidate_etf(flat);
  ++events_;
  if (power != nullptr) power->draw_changed(flat);
  on_task_done(ji, phase, flat);
  dispatch();
}

int Replay::primary_type(const Job& job) const {
  int primary = 0;
  int best_count = -1;
  for (std::size_t t = 0; t < types.size(); ++t) {
    if (job.tasks_by_type[t] > best_count) {
      best_count = job.tasks_by_type[t];
      primary = static_cast<int>(t);
    }
  }
  return primary;
}

sim::FabricStats Replay::fabric_stats(Seconds window) const {
  if (fabric == nullptr) return {};
  sim::FabricStats s = fabric->stats();
  // spine_busy_s sums over every ECMP link, so full utilization of a
  // k-link spine integrates to k * window (multiplying by 1.0 keeps
  // the single-path figure bit-identical to the historical one).
  const double links = s.spine_links > 0 ? static_cast<double>(s.spine_links) : 1.0;
  s.spine_utilization = window > 0 ? s.spine_busy_s / (window * links) : 0.0;
  return s;
}

PowerStats Replay::power_stats() {
  return power != nullptr ? power->finish(sim.now()) : PowerStats{};
}

}  // namespace bvl::core::replay
