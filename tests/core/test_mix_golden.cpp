// Batch-dispatch golden: pins every decision simulate_mix makes, bit for
// bit, across the dispatcher's whole input space: each placement policy
// × the three iso-power comparison racks × seven power modes (off;
// governors at two control periods; binding caps near the liveness
// floor) × reduce slowstart × a modeled two-rack fabric. Each line of
// tests/golden/MIX.golden is one configuration: its makespan and total
// energy as hex floats, then a 64-bit FNV-1a hash of the hex-float
// rendering of every pinned field (each job's start, finish, energy and
// node_index; each node's tasks_run and busy_slot_s; the PowerStats,
// realized frequency plans included). A dispatcher rewrite that starts
// one task on another node, or one tick later, changes a line.
// Regenerate (only after an *intentional* scheduling change) with:
//   BVL_UPDATE_GOLDEN=1 ./build/tests/test_core --gtest_filter='MixGolden.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster_sim.hpp"
#include "power/power_model.hpp"

namespace bvl::core {
namespace {

std::string fixture_path() { return std::string(BVL_GOLDEN_DIR) + "/MIX.golden"; }

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Maps and reduces of four classes, enough tasks per rack slot that
/// nodes fill, ETF defers to busy nodes and the cap throttles.
std::vector<JobRequest> jobs() {
  return {{wl::WorkloadId::kWordCount, 4 * GB}, {wl::WorkloadId::kSort, 4 * GB},
          {wl::WorkloadId::kGrep, 2 * GB},      {wl::WorkloadId::kTeraSort, 4 * GB},
          {wl::WorkloadId::kWordCount, 4 * GB}, {wl::WorkloadId::kSort, 4 * GB},
          {wl::WorkloadId::kGrep, 2 * GB},      {wl::WorkloadId::kTeraSort, 4 * GB}};
}

/// The idle rack plus one bottom-level task on the hungriest node type:
/// the lowest cap the power runtime admits.
Watts liveness_floor(const std::vector<NodeSpec>& rack) {
  Watts idle = 0;
  Watts max_delta = 0;
  for (const auto& spec : rack) {
    power::PowerModel model(spec.server);
    Hertz fmin = spec.server.dvfs.min_freq();
    idle += spec.server.power.system_idle_w * spec.count;
    max_delta = std::max(max_delta, model.node_draw(1, fmin) - model.node_draw(0, fmin));
  }
  return idle + max_delta;
}

struct PowerMode {
  const char* name;
  bool active;
  power::GovernorKind governor;
  double cap_over_floor;  ///< 0 = uncapped
  Seconds period_s;
};

constexpr PowerMode kPowerModes[] = {
    {"off", false, power::GovernorKind::kNone, 0, 1},
    {"ondemand/0.5", true, power::GovernorKind::kOndemand, 0, 0.5},
    {"ondemand/1", true, power::GovernorKind::kOndemand, 0, 1},
    {"ondemand-cap1.02/1", true, power::GovernorKind::kOndemand, 1.02, 1},
    {"ondemand-cap1.3/0.5", true, power::GovernorKind::kOndemand, 1.3, 0.5},
    {"cap-only1.3/1", true, power::GovernorKind::kNone, 1.3, 1},
    {"powersave-cap1.02/0.5", true, power::GovernorKind::kPowersave, 1.02, 0.5},
};

MixOptions options(const std::vector<NodeSpec>& rack, const PowerMode& mode, double slowstart,
                   bool fabric) {
  MixOptions opts;
  opts.reduce_slowstart = slowstart;
  if (mode.active) {
    opts.power.governor = mode.governor;
    opts.power.period_s = mode.period_s;
    if (mode.cap_over_floor > 0) opts.power.rack_cap_w = mode.cap_over_floor * liveness_floor(rack);
  }
  if (fabric) {
    int nodes = 0;
    for (const auto& spec : rack) nodes += spec.count;
    opts.fabric.modeled = true;
    for (int i = 0; i < nodes; ++i) opts.fabric.topology.rack_of.push_back(i % 2);
    opts.fabric.topology.spine_oversub = 4.0;
    opts.fabric.topology.spine_multipath = 2;
  }
  return opts;
}

/// Every pinned field of `r` as hex floats, one record per line.
std::string render(const MixResult& r) {
  std::ostringstream os;
  os << hex(r.makespan) << ' ' << hex(r.total_energy) << '\n';
  for (const auto& s : r.schedule) {
    os << "job " << s.node_index << ' ' << hex(s.start) << ' ' << hex(s.finish) << ' '
       << hex(s.energy) << '\n';
  }
  for (const auto& u : r.nodes) os << "node " << u.tasks_run << ' ' << hex(u.busy_slot_s) << '\n';
  const PowerStats& p = r.power;
  os << "power " << p.active << ' ' << hex(p.cap_w) << ' ' << hex(p.metered_energy) << ' '
     << hex(p.peak_draw) << ' ' << p.cap_exceeded << ' ' << p.level_changes << '\n';
  for (const auto& plan : p.node_plans) {
    for (const auto& seg : plan.segments()) os << hex(seg.start) << ':' << hex(seg.freq) << ' ';
    os << '\n';
  }
  return os.str();
}

/// One fixture line per configuration.
std::string render_all() {
  Characterizer ch;
  const auto racks = comparison_racks(4);
  std::ostringstream out;
  for (MixPolicy policy : {MixPolicy::kClassAware, MixPolicy::kEarliestFinish,
                           MixPolicy::kRoundRobin, MixPolicy::kRackLocal}) {
    for (std::size_t ri = 0; ri < racks.size(); ++ri) {
      for (const PowerMode& mode : kPowerModes) {
        for (double slowstart : {0.05, 1.0}) {
          for (bool fabric : {false, true}) {
            MixResult r = simulate_mix(ch, jobs(), racks[ri], policy, 1,
                                       options(racks[ri], mode, slowstart, fabric));
            char id[32];
            std::snprintf(id, sizeof(id), "%016llx",
                          static_cast<unsigned long long>(fnv1a(render(r))));
            out << to_string(policy) << " rack" << ri << ' ' << mode.name << " slowstart="
                << slowstart << " fabric=" << fabric << " makespan=" << hex(r.makespan)
                << " energy=" << hex(r.total_energy) << " fp=" << id << '\n';
          }
        }
      }
    }
  }
  return out.str();
}

TEST(MixGolden, BatchDispatchMatchesFixture) {
  std::string live = render_all();
  if (std::getenv("BVL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(fixture_path());
    ASSERT_TRUE(f.good()) << "cannot write " << fixture_path();
    f << live;
    GTEST_SKIP() << "fixture regenerated at " << fixture_path();
  }
  std::ifstream f(fixture_path());
  ASSERT_TRUE(f.good()) << "missing fixture " << fixture_path()
                        << " (run once with BVL_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << f.rdbuf();

  // Compare line by line so a divergence names its configuration.
  std::istringstream a(want.str()), b(live);
  std::string la, lb;
  std::size_t line = 0;
  int diverged = 0;
  while (std::getline(a, la)) {
    ++line;
    ASSERT_TRUE(std::getline(b, lb)) << "live output truncated at line " << line;
    if (la != lb) {
      ++diverged;
      ADD_FAILURE() << "line " << line << " diverged\n  want: " << la << "\n  live: " << lb;
    }
  }
  EXPECT_FALSE(std::getline(b, lb)) << "live output has extra lines after " << line;
  EXPECT_EQ(diverged, 0);
}

}  // namespace
}  // namespace bvl::core
