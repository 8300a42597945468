// replay::Replay driven directly on a mixed Xeon/Atom rack under a
// binding power cap, with a small greedy dispatcher written here. The
// replay caches each node's ETF terms and only recomputes them at a new
// instant or after that node's own start or completion, and the batch
// driver skips re-scoring a deferred task until the clock or the replay
// epoch moves. These tests pin both contracts: the epoch advances on
// every event that can change a dispatch decision and on nothing else,
// and every cached estimate equals, bit for bit, one computed from
// scratch out of the node's slots, end-time estimates and device queues.
#include "core/replay/replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "power/power_model.hpp"

namespace bvl::core::replay {
namespace {

Characterizer& shared_ch() {
  static Characterizer ch;  // trace cache shared across the suite
  return ch;
}

std::vector<NodeSpec> rack() { return comparison_racks(4)[2]; }  // 2 Xeon, then 7 Atom

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

MixOptions capped(power::GovernorKind governor, double cap_over_floor) {
  MixOptions opts;
  opts.slots_per_node = 2;  // nodes fill, so full nodes carry a slot wait
  opts.power.governor = governor;
  opts.power.rack_cap_w = cap_over_floor * liveness_floor(rack());
  return opts;
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
  // Identical jobs on identical nodes: tasks started together on nodes
  // of one type and level finish together.
  const std::vector<JobRequest> specs = {
      {wl::WorkloadId::kGrep, 1 * GB},      {wl::WorkloadId::kGrep, 1 * GB},
      {wl::WorkloadId::kWordCount, 1 * GB}, {wl::WorkloadId::kWordCount, 1 * GB},
      {wl::WorkloadId::kSort, 1 * GB},      {wl::WorkloadId::kTeraSort, 1 * GB}};
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
  // Scores a map and a reduce against every node, through the flat
  // source's all() and through at(), and recomputes each from scratch.
  auto check = [&] {
    for (const TaskRef& tr : probes) {
      source.bind(tr);
      for (const placement::Candidate& c : source.all()) {
        const Node& n = r.nodes[c.flat];
        const Seconds want = fresh_estimate(r, c.flat, r.task(tr, n.type_id));
        ++checks;
        if (std::bit_cast<std::uint64_t>(c.est_finish) != std::bit_cast<std::uint64_t>(want) ||
            c.free != n.has_free_slot() ||
            std::bit_cast<std::uint64_t>(source.at(c.flat).est_finish) !=
                std::bit_cast<std::uint64_t>(want)) {
          ++mismatches;
        }
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

}  // namespace
}  // namespace bvl::core::replay
