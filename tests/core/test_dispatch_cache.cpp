// replay::Replay driven directly on a mixed Xeon/Atom rack under a
// binding power cap, with small greedy dispatchers written here. The
// replay caches each node's ETF terms and only recomputes them at a new
// instant or after that node's own start or completion; the batch
// candidate source lists only the first idle node of each (type, rack)
// group; and the batch driver skips re-scoring a deferred task's whole
// decision class until the clock or the replay epoch moves. These tests
// pin each contract: the epoch advances on every event that can change
// a dispatch decision and on nothing else; every cached estimate equals,
// bit for bit, one computed from scratch out of the node's slots,
// end-time estimates and device queues; the collapsed list picks what
// every node would; every task of one class gets one outcome per state;
// and only the policies that cannot tell such tasks or nodes apart
// share stamps and collapse idle nodes.
#include "core/replay/replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "power/power_model.hpp"

namespace bvl::core::replay {
namespace {

Characterizer& shared_ch() {
  static Characterizer ch;  // trace cache shared across the suite
  return ch;
}

std::vector<NodeSpec> rack() { return comparison_racks(4)[2]; }  // 2 Xeon, then 7 Atom
std::vector<NodeSpec> wide_rack() { return comparison_racks(8)[2]; }  // 4 Xeon, then 14 Atom
constexpr Bytes kWideInput = 4 * GB;  ///< per job on the wide rack: more tasks than slots
constexpr double kWideCap = 1.1;      ///< its cap over the liveness floor

/// The idle rack plus one bottom-level task on the hungriest node type:
/// the lowest cap the power runtime admits.
Watts liveness_floor(const std::vector<NodeSpec>& nodes) {
  Watts idle = 0;
  Watts max_delta = 0;
  for (const auto& spec : nodes) {
    power::PowerModel model(spec.server);
    Hertz fmin = spec.server.dvfs.min_freq();
    idle += spec.server.power.system_idle_w * spec.count;
    max_delta = std::max(max_delta, model.node_draw(1, fmin) - model.node_draw(0, fmin));
  }
  return idle + max_delta;
}

MixOptions capped(power::GovernorKind governor, double cap_over_floor,
                  const std::vector<NodeSpec>& nodes = rack()) {
  MixOptions opts;
  opts.slots_per_node = 2;  // nodes fill, so full nodes carry a slot wait
  opts.power.governor = governor;
  opts.power.rack_cap_w = cap_over_floor * liveness_floor(nodes);
  return opts;
}

/// Ondemand under a binding cap on `nodes`, with two racks striped over
/// the flat order behind a 4:1 spine: free nodes carry disk and
/// ingress backlog, and each (type, rack) group has several nodes.
MixOptions fabric_capped(const std::vector<NodeSpec>& nodes) {
  MixOptions opts = capped(power::GovernorKind::kOndemand, kWideCap, nodes);
  int count = 0;
  for (const auto& spec : nodes) count += spec.count;
  opts.fabric.modeled = true;
  for (int i = 0; i < count; ++i) opts.fabric.topology.rack_of.push_back(i % 2);
  opts.fabric.topology.spine_oversub = 4.0;
  return opts;
}

/// Identical jobs on identical nodes: tasks started together on nodes
/// of one type and level finish together, and Grep and WordCount each
/// have a second job, so decision classes have several members.
std::vector<JobRequest> twin_specs(Bytes input = 1 * GB) {
  return {{wl::WorkloadId::kGrep, input},      {wl::WorkloadId::kGrep, input},
          {wl::WorkloadId::kWordCount, input}, {wl::WorkloadId::kWordCount, input},
          {wl::WorkloadId::kSort, input},      {wl::WorkloadId::kTeraSort, input}};
}

/// Every node in flat order, each read through at(): the candidate list
/// without the idle-node collapse.
class EveryNode final : public Candidates {
 public:
  using Candidates::Candidates;
  const std::vector<placement::Candidate>& all() override {
    scratch_.clear();
    for (std::size_t i = 0; i < replay_.nodes.size(); ++i) scratch_.push_back(at(i));
    return scratch_;
  }
};

/// Replays every task of `r`'s jobs with a dispatcher that offers each
/// ready pending task to `place` on every pass, with no deferral stamps.
/// `place` returns the node to start the task on, or kNoNode to leave
/// it pending.
void drain(Replay& r, const std::function<std::size_t(const TaskRef&)>& place) {
  std::vector<TaskRef> pending;
  for (std::size_t j = 0; j < r.jobs.size(); ++j) {
    for (std::size_t i = 0; i < r.profile(j, 0).map_tasks.size(); ++i) {
      pending.push_back(r.task_ref(j, 0, i));
    }
    for (std::size_t i = 0; i < r.profile(j, 0).reduce_tasks.size(); ++i) {
      pending.push_back(r.task_ref(j, 1, i));
    }
  }
  const std::size_t total = pending.size();
  std::size_t done = 0;
  r.on_task_done = [&](std::size_t, int, std::size_t) { ++done; };
  r.dispatch = [&] {
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = pending.begin(); it != pending.end();) {
        const std::size_t flat =
            it->phase == 1 && !r.jobs[it->job].reduces_ready ? placement::kNoNode : place(*it);
        if (flat == placement::kNoNode) {
          ++it;
          continue;
        }
        const TaskRef tr = *it;
        it = pending.erase(it);
        r.start_task(tr, flat);
        progress = true;
      }
    }
  };
  if (r.power != nullptr) r.power->begin([&] { return done < total; }, [&] { r.dispatch(); });
  r.dispatch();
  r.sim.run();
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(done, total);
}

/// The batch driver's placement: the pick, if it is free and admitted.
std::size_t place_or_defer(Replay& r, std::size_t flat) {
  const bool placed = flat != placement::kNoNode && r.nodes[flat].has_free_slot() && r.admit(flat);
  return placed ? flat : placement::kNoNode;
}

/// `t`'s ETF estimate on `flat`, from the node's state alone.
Seconds fresh_estimate(const Replay& r, std::size_t flat, const perf::SimTask& t) {
  const Node& n = r.nodes[flat];
  const Seconds now = r.sim.now();
  const bool free = n.slots->in_use() < n.slots->slots();
  const Seconds delay =
      free || n.est_ends.empty() ? 0 : std::max<Seconds>(0, *n.est_ends.begin() - now);
  const Seconds start = now + delay;
  const Seconds disk = std::max<Seconds>(0, n.disk->free_at() - start);
  const Seconds nic = std::max<Seconds>(0, n.nic_est->free_at() - start);
  return delay + (std::max({t.cpu_s, disk + t.disk_svc_s, nic + t.nic_svc_s}) + t.serial_s +
                  t.backoff_s);
}

TEST(DispatchCache, EpochAdvancesOnStartsCompletionsAndThrottlesOnly) {
  const std::vector<JobRequest> specs = {{wl::WorkloadId::kGrep, 1 * GB}};
  // Cap-only control at the liveness floor: an idle node at its base
  // level must throttle to the bottom level to take one task, and then
  // no second task fits anywhere.
  const std::vector<NodeSpec> nodes = rack();  // the replay points into it
  Replay r(shared_ch(), nodes, specs, capped(power::GovernorKind::kNone, 1.0),
           MixPolicy::kEarliestFinish, 0, "test");
  ASSERT_NE(r.power, nullptr);
  constexpr std::size_t kXeon = 0, kAtom = 2;
  ASSERT_TRUE(r.is_big[kXeon]);
  ASSERT_FALSE(r.is_big[kAtom]);
  const std::size_t job = r.add_job(specs[0]);
  std::vector<std::uint64_t> epoch_at_done;
  r.on_task_done = [&](std::size_t, int, std::size_t) { epoch_at_done.push_back(r.epoch()); };
  r.dispatch = [] {};

  FlatCandidateSource source(r);
  const TaskRef first = r.task_ref(job, 0, 0);
  std::uint64_t e = r.epoch();
  r.pick(first, source);
  EXPECT_EQ(r.epoch(), e) << "pick() changes nothing";

  ASSERT_GT(r.power->level(kXeon), 0);
  ASSERT_TRUE(r.admit(kXeon));
  EXPECT_EQ(r.power->level(kXeon), 0);
  EXPECT_GT(r.epoch(), e) << "an admit() that throttles";
  e = r.epoch();
  r.start_task(first, kXeon);
  EXPECT_EQ(r.epoch(), e + 1) << "start_task";
  e = r.epoch();

  // The Atom walks down to the bottom level and is still refused: the
  // throttle alone must advance the epoch.
  ASSERT_GT(r.power->level(kAtom), 0);
  EXPECT_FALSE(r.admit(kAtom));
  EXPECT_EQ(r.power->level(kAtom), 0);
  EXPECT_GT(r.epoch(), e) << "a refused admit() that throttles";
  e = r.epoch();
  EXPECT_FALSE(r.admit(kAtom));
  EXPECT_EQ(r.epoch(), e) << "a refused admit() that changes nothing";
  r.pick(r.task_ref(job, 0, 1), source);
  EXPECT_EQ(r.epoch(), e) << "pick() changes nothing";

  r.sim.run();  // no control loop: the one completion is the only event that counts
  ASSERT_EQ(epoch_at_done.size(), 1u);
  EXPECT_EQ(epoch_at_done[0], e + 1) << "task_done";
  e = r.epoch();
  EXPECT_TRUE(r.admit(kXeon));
  EXPECT_EQ(r.epoch(), e) << "an admit() that fits without a throttle";
}

TEST(DispatchCache, CachedEstimatesMatchAFreshEstimateAfterEveryEvent) {
  const std::vector<JobRequest> specs = twin_specs();
  const std::vector<NodeSpec> nodes = rack();
  // Ondemand under a cap a quarter above the liveness floor: the
  // governor changes levels and the cap defers admissions.
  Replay r(shared_ch(), nodes, specs, capped(power::GovernorKind::kOndemand, 1.25),
           MixPolicy::kEarliestFinish, 0, "test");
  std::vector<TaskRef> pending;
  for (const JobRequest& spec : specs) {
    const std::size_t j = r.add_job(spec);
    for (std::size_t i = 0; i < r.profile(j, 0).map_tasks.size(); ++i) {
      pending.push_back(r.task_ref(j, 0, i));
    }
    for (std::size_t i = 0; i < r.profile(j, 0).reduce_tasks.size(); ++i) {
      pending.push_back(r.task_ref(j, 1, i));
    }
  }
  const std::size_t total = pending.size();

  FlatCandidateSource source(r);
  const TaskRef probes[] = {r.task_ref(0, 0, 0), r.task_ref(0, 1, 0)};
  int checks = 0, mismatches = 0, refused = 0;
  // Scores a map and a reduce against every node through at(), and
  // against the collapsed list through all(), and recomputes each
  // score from scratch.
  auto check = [&] {
    auto matches = [&](const TaskRef& tr, const placement::Candidate& c) {
      const Node& n = r.nodes[c.flat];
      const Seconds want = fresh_estimate(r, c.flat, r.task(tr, n.type_id));
      ++checks;
      return std::bit_cast<std::uint64_t>(c.est_finish) == std::bit_cast<std::uint64_t>(want) &&
             c.free == n.has_free_slot();
    };
    for (const TaskRef& tr : probes) {
      source.bind(tr);
      for (std::size_t flat = 0; flat < r.nodes.size(); ++flat) {
        if (!matches(tr, source.at(flat))) ++mismatches;
      }
      for (const placement::Candidate& c : source.all()) {
        if (!matches(tr, c)) ++mismatches;
      }
    }
  };

  std::map<Seconds, int> completions_at;
  std::size_t done = 0;
  r.on_task_done = [&](std::size_t, int, std::size_t) {
    ++completions_at[r.sim.now()];
    ++done;
  };
  r.dispatch = [&] {
    check();
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->phase == 1 && !r.jobs[it->job].reduces_ready) {
          ++it;
          continue;
        }
        const std::size_t flat = r.pick(*it, source);
        if (flat == placement::kNoNode || !r.nodes[flat].has_free_slot()) {
          ++it;
          continue;
        }
        if (!r.admit(flat)) {
          ++refused;
          ++it;
          continue;
        }
        const TaskRef tr = *it;
        it = pending.erase(it);
        r.start_task(tr, flat);
        check();
        progress = true;
      }
    }
  };
  r.power->begin([&] { return done < total; }, [&] { r.dispatch(); });
  r.dispatch();
  r.sim.run();

  ASSERT_TRUE(pending.empty());
  EXPECT_EQ(done, total);
  EXPECT_GT(refused, 0) << "the cap never deferred an admission";
  EXPECT_GT(r.power_stats().level_changes, 0);
  int shared = 0;
  for (const auto& [at, n] : completions_at) shared += n > 1 ? 1 : 0;
  EXPECT_GT(shared, 0) << "no two completions shared a timestamp";
  EXPECT_GT(checks, 1000);
  EXPECT_EQ(mismatches, 0);
}

/// The collapsed list the batch source must hold now, rebuilt from each
/// node's state: in flat order, every node that is full or has disk or
/// ingress backlog, plus the first idle node of each (type, rack) group.
std::vector<std::size_t> expected_list(const Replay& r) {
  std::set<std::pair<int, int>> groups;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < r.nodes.size(); ++i) {
    const Node& n = r.nodes[i];
    const bool idle = n.has_free_slot() && n.disk->free_at() <= r.sim.now() &&
                      n.nic_est->free_at() <= r.sim.now();
    if (idle && !groups.insert({n.type_id, r.rack_of[i]}).second) continue;
    out.push_back(i);
  }
  return out;
}

TEST(DispatchCache, CollapsedListPicksWhatEveryNodePicks) {
  const std::vector<JobRequest> specs = twin_specs(kWideInput);
  const std::vector<NodeSpec> nodes = wide_rack();
  for (MixPolicy policy : {MixPolicy::kEarliestFinish, MixPolicy::kClassAware}) {
    SCOPED_TRACE(to_string(policy));
    Replay r(shared_ch(), nodes, specs, fabric_capped(nodes), policy, 0, "test");
    for (const JobRequest& spec : specs) r.add_job(spec);
    FlatCandidateSource source(r);
    EveryNode every(r);
    int picks = 0, mismatches = 0, malformed = 0, collapsed = 0, backlogged_free = 0;
    drain(r, [&](const TaskRef& tr) {
      const std::size_t flat = r.pick(tr, source);
      ++picks;
      if (flat != r.pick(tr, every)) ++mismatches;
      std::vector<std::size_t> listed;
      for (const placement::Candidate& c : source.all()) listed.push_back(c.flat);
      if (listed != expected_list(r)) ++malformed;
      if (listed.size() < r.nodes.size()) ++collapsed;
      for (std::size_t i = 0; i < r.nodes.size(); ++i) {
        const Node& n = r.nodes[i];
        if (n.has_free_slot() && std::max(n.disk->free_at(), n.nic_est->free_at()) > r.sim.now()) {
          ++backlogged_free;
        }
      }
      return place_or_defer(r, flat);
    });
    EXPECT_GT(picks, 1000);
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(malformed, 0);
    EXPECT_GT(collapsed, 0) << "no state had two idle nodes in one group";
    EXPECT_GT(backlogged_free, 0) << "no free node ever carried backlog";
  }
}

TEST(DispatchCache, EveryTaskOfADecisionClassGetsOneOutcomePerState) {
  const std::vector<JobRequest> specs = twin_specs(kWideInput);
  const std::vector<NodeSpec> nodes = wide_rack();
  for (MixPolicy policy : {MixPolicy::kEarliestFinish, MixPolicy::kClassAware}) {
    SCOPED_TRACE(to_string(policy));
    Replay r(shared_ch(), nodes, specs, fabric_capped(nodes), policy, 0, "test");
    for (const JobRequest& spec : specs) r.add_job(spec);
    FlatCandidateSource source(r);
    // (now, epoch, profile row, phase, task index) -> (pick, placed).
    using State = std::tuple<Seconds, std::uint64_t, std::size_t, int, std::size_t>;
    std::map<State, std::pair<std::size_t, bool>> outcome;
    int compared = 0, differed = 0, refused = 0;
    drain(r, [&](const TaskRef& tr) {
      const State state{r.sim.now(), r.epoch(), r.jobs[tr.job].spec, tr.phase, tr.task};
      const std::size_t flat = r.pick(tr, source);
      const std::size_t placed = place_or_defer(r, flat);
      if (flat != placement::kNoNode && placed == placement::kNoNode &&
          r.nodes[flat].has_free_slot()) {
        ++refused;
      }
      const auto [it, fresh] = outcome.try_emplace(state, flat, placed != placement::kNoNode);
      if (!fresh) {
        ++compared;
        if (it->second != std::pair(flat, placed != placement::kNoNode)) ++differed;
      }
      return placed;
    });
    EXPECT_GT(compared, 100);
    EXPECT_EQ(differed, 0);
    EXPECT_GT(refused, 0) << "the cap never refused an admission";
  }
}

TEST(DispatchCache, OnlyPoliciesBlindToTheTaskAndNodeIdShareDecisions) {
  using placement::make_placement_policy;
  EXPECT_TRUE(make_placement_policy(MixPolicy::kEarliestFinish, nullptr)->score_determined());
  EXPECT_TRUE(make_placement_policy(MixPolicy::kClassAware, nullptr)->score_determined());
  EXPECT_FALSE(make_placement_policy(MixPolicy::kRoundRobin, nullptr)->score_determined())
      << "reads the task's rr_node";
  EXPECT_TRUE(make_placement_policy(MixPolicy::kRackLocal, nullptr)->score_determined())
      << "no fabric: exactly earliest-finish";

  // Through the replay the batch driver and source consult: rack-local
  // with a spine reads the job's map homes and the candidate's id.
  const std::vector<JobRequest> specs = {{wl::WorkloadId::kGrep, 1 * GB}};
  const std::vector<NodeSpec> nodes = rack();
  MixOptions spine = fabric_capped(nodes);
  Replay penalized(shared_ch(), nodes, specs, spine, MixPolicy::kRackLocal, 0, "test");
  ASSERT_TRUE(penalized.fabric->has_spine());
  EXPECT_FALSE(penalized.policy().score_determined());
  MixOptions one_rack = spine;
  one_rack.fabric.topology = {};  // one rack spanning every node: no spine
  Replay flat(shared_ch(), nodes, specs, one_rack, MixPolicy::kRackLocal, 0, "test");
  ASSERT_FALSE(flat.fabric->has_spine());
  EXPECT_TRUE(flat.policy().score_determined());
}

}  // namespace
}  // namespace bvl::core::replay
