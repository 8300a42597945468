// PowerRuntime driven directly on a rack of bare slot pools — no
// characterizer, no replay. The runtime caches one draw per node and
// refreshes only the node whose slot count or level changed; these
// tests pin that cache against a from-scratch evaluation: after every
// acquire, release, cap admission and tick, the metered rack draw
// equals a fresh node-order sum of PowerModel::node_draw, under every
// governor, uncapped and capped. The repricing tests pin the
// mid-flight rule on hand-computed completion times: a running compute
// leg carries its completed fraction across every level change, forced
// by a capped admission or a governor tick, and reprices only the
// remainder.
#include "core/replay/power_runtime.hpp"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "power/power_model.hpp"
#include "util/rng.hpp"

namespace bvl::core::replay {
namespace {

/// Xeon and Atom nodes interleaved (every third a Xeon), one slot per
/// core. PowerRuntime reads only each node's server and slot pool.
struct Rack {
  explicit Rack(int n) {
    for (int i = 0; i < n; ++i) {
      Node node;
      node.server = i % 3 == 0 ? &xeon : &atom;
      node.slots = std::make_unique<sim::SlotPool>(sim, node.server->cores);
      models.emplace_back(*node.server);
      nodes.push_back(std::move(node));
    }
  }

  /// The rack draw evaluated from scratch, summed in node order.
  Watts fresh_draw(const PowerRuntime& rt) const {
    Watts w = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      w += models[i].node_draw(nodes[i].slots->in_use(),
                               nodes[i].server->dvfs.level_freq(rt.level(i)));
    }
    return w;
  }

  Watts idle() const {
    Watts w = 0;
    for (const Node& n : nodes) w += n.server->power.system_idle_w;
    return w;
  }

  /// Draw with every slot busy at the top level.
  Watts full() const {
    Watts w = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      w += models[i].node_draw(nodes[i].server->cores, nodes[i].server->dvfs.max_freq());
    }
    return w;
  }

  /// A render row for PowerRuntime::start_compute, kept alive with the
  /// rack: row[1 + l] holds one map task whose compute takes
  /// dur_at(l) at DVFS level l.
  template <class DurAt>
  const std::vector<perf::JobSim>& render_row(int levels, DurAt dur_at) {
    std::vector<perf::JobSim>& row = rows.emplace_back(1 + static_cast<std::size_t>(levels));
    for (int l = 0; l < levels; ++l) {
      perf::SimTask t;
      t.cpu_s = dur_at(l);
      row[1 + static_cast<std::size_t>(l)].map_tasks.push_back(t);
    }
    return row;
  }

  sim::Simulation sim;
  const arch::ServerConfig xeon = arch::xeon_e5_2420();
  const arch::ServerConfig atom = arch::atom_c2758();
  std::vector<power::PowerModel> models;
  std::vector<Node> nodes;
  std::deque<std::vector<perf::JobSim>> rows;
};

constexpr Hertz kBaseFreq = 1.8 * GHz;

/// One bottom-level task's draw on an idle node.
Watts bottom_delta(const arch::ServerConfig& server) {
  power::PowerModel m(server);
  return m.node_draw(1, server.dvfs.min_freq()) - m.node_draw(0, server.dvfs.min_freq());
}

TEST(PowerRuntime, CachedRackDrawMatchesAFreshNodeOrderSum) {
  for (auto governor : {power::GovernorKind::kNone, power::GovernorKind::kPerformance,
                        power::GovernorKind::kPowersave, power::GovernorKind::kOndemand}) {
    for (bool capped : {false, true}) {
      SCOPED_TRACE(power::to_string(governor) + (capped ? " capped" : " uncapped"));
      Rack rack(8);
      power::PowerPlanSpec spec;
      spec.governor = governor;
      if (capped) spec.rack_cap_w = rack.idle() + 0.3 * (rack.full() - rack.idle());
      PowerRuntime rt(rack.sim, spec, rack.nodes, kBaseFreq, "test");

      int checks = 0, stale = 0, over_cap = 0, deferred = 0, outstanding = 0;
      auto check = [&] {
        ++checks;
        if (rt.draw() != rack.fresh_draw(rt)) ++stale;
        if (capped && rt.draw() > spec.rack_cap_w + 1e-9) ++over_cap;
      };
      check();

      // Tasks arrive at random times on random nodes, pass the cap
      // gate (which may throttle the node, or defer and drop the task)
      // and hold their slot for a compute leg the runtime reprices on
      // every level change; the completion releases the slot.
      constexpr Seconds kHorizon = 40;
      Pcg32 rng(0x5eed + static_cast<std::uint64_t>(governor) * 2 + capped, 1);
      for (int a = 0; a < 400; ++a) {
        std::size_t flat = rng.uniform(0, rack.nodes.size() - 1);
        Seconds work = rng.uniform_real(0.5, 8.0);
        rack.sim.at(rng.uniform_real(0, kHorizon), [&, flat, work] {
          Node& n = rack.nodes[flat];
          if (!n.has_free_slot()) return;
          bool admitted = rt.admit(flat);
          check();
          if (!admitted) {
            ++deferred;
            return;
          }
          ASSERT_TRUE(n.slots->try_acquire());
          rt.draw_changed(flat);
          check();
          ++outstanding;
          const arch::DvfsTable& dvfs = n.server->dvfs;
          const auto& row = rack.render_row(dvfs.levels(), [work, &dvfs](int lvl) {
            return work * dvfs.max_freq() / dvfs.level_freq(lvl);
          });
          rt.start_compute(flat, row, 0, 0, [&, flat] {
            rack.nodes[flat].slots->release();
            rt.draw_changed(flat);
            check();
            --outstanding;
          });
        });
      }
      rt.begin([&] { return rack.sim.now() < kHorizon || outstanding > 0; }, check);
      rack.sim.run();

      EXPECT_GT(checks, 500);
      EXPECT_EQ(stale, 0);
      EXPECT_EQ(outstanding, 0);
      EXPECT_EQ(over_cap, 0);
      if (capped) {
        EXPECT_GT(deferred, 0);  // the cap binds
      }
    }
  }
}

TEST(PowerRuntime, IdleNodeThrottledByADeferredAdmissionRecoversAtTheNextTick) {
  // Cap-only control at the rack's admissibility floor plus half an
  // Atom task: one bottom-level Xeon task fits, then not even a
  // bottom-level Atom task does.
  Rack rack(2);  // node 0 Xeon, node 1 Atom
  constexpr std::size_t kXeon = 0, kAtom = 1;
  power::PowerPlanSpec spec;
  spec.rack_cap_w = rack.idle() + bottom_delta(rack.xeon) + 0.5 * bottom_delta(rack.atom);
  PowerRuntime rt(rack.sim, spec, rack.nodes, kBaseFreq, "test");
  const int base = rt.level(kAtom);
  const int xeon_base = rt.level(kXeon);
  ASSERT_GT(base, 0);

  // Ticks at t = 1 and 2 find the Atom idle at its base level and
  // leave it there.
  rack.sim.at(2.5, [&] {
    ASSERT_TRUE(rt.admit(kXeon));
    ASSERT_TRUE(rack.nodes[kXeon].slots->try_acquire());
    rt.draw_changed(kXeon);
    // The gate walks the idle Atom down to the bottom level, still
    // cannot fit the task, and defers it: the Atom stays idle, but
    // throttled.
    EXPECT_FALSE(rt.admit(kAtom));
    EXPECT_EQ(rt.level(kAtom), 0);
    EXPECT_EQ(rt.draw(), rack.fresh_draw(rt));
  });
  rack.sim.at(2.6, [&] {
    rack.nodes[kXeon].slots->release();
    rt.draw_changed(kXeon);
  });
  std::vector<int> atom_level_at_tick;
  rt.begin([&] { return rack.sim.now() < 5; },
           [&] { atom_level_at_tick.push_back(rt.level(kAtom)); });
  rack.sim.run();

  // Ticks at 1, 2, 3 and 4: the cap has room again by t = 3, and that
  // tick must raise the Atom back to its base level.
  ASSERT_EQ(atom_level_at_tick.size(), 4u);
  EXPECT_EQ(atom_level_at_tick[0], base);
  EXPECT_EQ(atom_level_at_tick[1], base);
  EXPECT_EQ(atom_level_at_tick[2], base);
  EXPECT_EQ(atom_level_at_tick[3], base);
  EXPECT_EQ(rt.level(kXeon), xeon_base);
}

// ---------------------------------------------------------------------------
// Mid-flight repricing on hand-computed cases
// ---------------------------------------------------------------------------

/// Holds one slot of node 0 from `start` for a compute leg whose full
/// duration at DVFS level l is dur[l]; records its completion time in
/// *finished and releases the slot.
void start_leg(Rack& rack, PowerRuntime& rt, Seconds start, std::array<Seconds, 4> dur,
               Seconds* finished) {
  rack.sim.at(start, [&rack, &rt, dur, finished] {
    ASSERT_TRUE(rack.nodes[0].slots->try_acquire());
    rt.draw_changed(0);
    const auto& row = rack.render_row(static_cast<int>(dur.size()), [dur](int lvl) {
      return dur[static_cast<std::size_t>(lvl)];
    });
    rt.start_compute(0, row, 0, 0, [&rack, &rt, finished] {
      *finished = rack.sim.now();
      rack.nodes[0].slots->release();
      rt.draw_changed(0);
    });
  });
}

/// Cap-only control on one Xeon, the cap at two busy cores on level 2:
/// one task at the base (top) level fits, and admitting a second one
/// throttles the node exactly one level.
power::PowerPlanSpec one_step_cap(const Rack& rack, Seconds period) {
  power::PowerPlanSpec spec;
  spec.rack_cap_w = rack.models[0].node_draw(2, rack.xeon.dvfs.level_freq(2));
  spec.period_s = period;
  return spec;
}

TEST(PowerRuntime, CappedAdmissionRepricesTheRemainderOfARunningLeg) {
  Rack rack(1);
  ASSERT_EQ(rack.xeon.dvfs.levels(), 4);
  const power::PowerPlanSpec spec = one_step_cap(rack, 100);  // no tick inside the leg
  ASSERT_LE(rack.models[0].node_draw(1, rack.xeon.dvfs.level_freq(3)), spec.rack_cap_w);
  PowerRuntime rt(rack.sim, spec, rack.nodes, kBaseFreq, "test");
  ASSERT_EQ(rt.level(0), 3);

  // 4 s at level 3, 6 s at level 2, started at 0. At t = 1 a quarter
  // is done; the other three quarters take 0.75 * 6 = 4.5 s at level 2.
  Seconds finished = -1;
  start_leg(rack, rt, 0, {16, 8, 6, 4}, &finished);
  rack.sim.at(1, [&] {
    EXPECT_TRUE(rt.admit(0));
    EXPECT_EQ(rt.level(0), 2);
  });
  rt.begin([&] { return finished < 0; }, [] {});
  rack.sim.run();
  EXPECT_EQ(finished, 5.5);
  EXPECT_EQ(rt.level_changes(), 1);
}

TEST(PowerRuntime, CapRecoveryTickRepricesTheRemainderBackUp) {
  Rack rack(1);
  ASSERT_EQ(rack.xeon.dvfs.levels(), 4);
  PowerRuntime rt(rack.sim, one_step_cap(rack, 2), rack.nodes, kBaseFreq, "test");

  // The same leg and throttle as above; the tick at t = 2 finds room
  // under the cap and raises the node back to its base level. By then
  // 1/4 + 1/6 = 5/12 is done, and the last 7/12 take 7/12 * 4 s.
  Seconds finished = -1;
  start_leg(rack, rt, 0, {16, 8, 6, 4}, &finished);
  rack.sim.at(1, [&] { EXPECT_TRUE(rt.admit(0)); });
  std::vector<int> level_at_tick;
  rt.begin([&] { return finished < 0; }, [&] { level_at_tick.push_back(rt.level(0)); });
  rack.sim.run();
  EXPECT_NEAR(finished, 2 + 7.0 / 3.0, 1e-12);
  EXPECT_EQ(level_at_tick, (std::vector<int>{3, 3}));  // ticks at t = 2 and 4
  EXPECT_EQ(rt.level_changes(), 2);
}

TEST(PowerRuntime, GovernorTicksRepriceARunningLegAcrossSeveralLevelChanges) {
  // ondemand with one busy slot on the node: utilization stays under
  // down_threshold, so the ticks at t = 1, 2 and 3 step the node from
  // the top level to the bottom, one level each.
  Rack rack(1);
  ASSERT_EQ(rack.xeon.dvfs.levels(), 4);
  power::PowerPlanSpec spec;
  spec.governor = power::GovernorKind::kOndemand;
  PowerRuntime rt(rack.sim, spec, rack.nodes, kBaseFreq, "test");
  ASSERT_EQ(rt.level(0), 3);

  // 2 / 3 / 5 / 8 s at levels 3 / 2 / 1 / 0, started at 0.5. Done by
  // the ticks: 0.5/2 = 1/4, then 1/3 more, then 1/5 more; the last
  // 13/60 take 13/60 * 8 s at the bottom level.
  Seconds finished = -1;
  start_leg(rack, rt, 0.5, {8, 5, 3, 2}, &finished);
  std::vector<int> level_at_tick;
  rt.begin([&] { return finished < 0; }, [&] { level_at_tick.push_back(rt.level(0)); });
  rack.sim.run();
  EXPECT_NEAR(finished, 3 + 26.0 / 15.0, 1e-12);
  EXPECT_EQ(level_at_tick, (std::vector<int>{2, 1, 0, 0}));  // ticks at t = 1..4
  EXPECT_EQ(rt.level_changes(), 3);
}

TEST(PowerRuntime, ZeroDurationLegsCompleteAtTheirInstant) {
  Rack rack(1);
  ASSERT_EQ(rack.xeon.dvfs.levels(), 4);
  PowerRuntime rt(rack.sim, one_step_cap(rack, 100), rack.nodes, kBaseFreq, "test");

  // A leg with no compute left at the level the admission at t = 1
  // moves it to completes at that level change; a leg with no compute
  // at its start level completes the instant it starts.
  Seconds at_change = -1, at_start = -1;
  start_leg(rack, rt, 0, {0, 0, 0, 4}, &at_change);
  rack.sim.at(1, [&] { EXPECT_TRUE(rt.admit(0)); });
  start_leg(rack, rt, 2, {0, 0, 0, 0}, &at_start);
  rt.begin([&] { return at_start < 0; }, [] {});
  rack.sim.run();
  EXPECT_EQ(at_change, 1.0);
  EXPECT_EQ(at_start, 2.0);
  EXPECT_EQ(rt.level_changes(), 1);
}

}  // namespace
}  // namespace bvl::core::replay
