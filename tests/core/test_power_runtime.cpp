// PowerRuntime driven directly on a rack of bare slot pools — no
// characterizer, no replay. The runtime caches one draw per node and
// refreshes only the node whose slot count or level changed; these
// tests pin that cache against a from-scratch evaluation: after every
// acquire, release, cap admission and tick, the metered rack draw
// equals a fresh node-order sum of PowerModel::node_draw, under every
// governor, uncapped and capped.
#include "core/replay/power_runtime.hpp"

#include <gtest/gtest.h>

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

  sim::Simulation sim;
  const arch::ServerConfig xeon = arch::xeon_e5_2420();
  const arch::ServerConfig atom = arch::atom_c2758();
  std::vector<power::PowerModel> models;
  std::vector<Node> nodes;
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
          auto dur_at = [work, &dvfs](int lvl) {
            return work * dvfs.max_freq() / dvfs.level_freq(lvl);
          };
          rt.start_compute(flat, dur_at, [&, flat] {
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

}  // namespace
}  // namespace bvl::core::replay
