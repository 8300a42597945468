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
//
// tests/golden/BATCH_RACK.golden pins the same fields at rack scale,
// where the dispatcher's idle-node collapse and shared deferral stamps
// do their work: bvl_bench's batch_rack queue (64 ten-GB jobs, five
// distinct specs) on the 141-node heterogeneous rack, one line per
// policy and mode.
//
// Regenerate (only after an *intentional* scheduling change) with:
//   BVL_UPDATE_GOLDEN=1 ./build/tests/test_core --gtest_filter='MixGolden.*:BatchRackGolden.*'
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

std::string fixture_path(const char* name) { return std::string(BVL_GOLDEN_DIR) + "/" + name; }

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

std::string fingerprint(const MixResult& r) {
  char id[32];
  std::snprintf(id, sizeof(id), "%016llx", static_cast<unsigned long long>(fnv1a(render(r))));
  return " makespan=" + hex(r.makespan) + " energy=" + hex(r.total_energy) + " fp=" + id;
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
            out << to_string(policy) << " rack" << ri << ' ' << mode.name << " slowstart="
                << slowstart << " fabric=" << fabric << fingerprint(r) << '\n';
          }
        }
      }
    }
  }
  return out.str();
}

/// bvl_bench's batch_rack queue: the fabric figures' eight-job mix,
/// eight times over.
std::vector<JobRequest> rack_jobs() {
  const std::vector<JobRequest> mix = {
      {wl::WorkloadId::kWordCount, 10 * GB},  {wl::WorkloadId::kSort, 10 * GB},
      {wl::WorkloadId::kGrep, 10 * GB},       {wl::WorkloadId::kTeraSort, 10 * GB},
      {wl::WorkloadId::kNaiveBayes, 10 * GB}, {wl::WorkloadId::kWordCount, 10 * GB},
      {wl::WorkloadId::kSort, 10 * GB},       {wl::WorkloadId::kGrep, 10 * GB}};
  std::vector<JobRequest> out;
  for (int c = 0; c < 8; ++c) out.insert(out.end(), mix.begin(), mix.end());
  return out;
}

enum class RackMode { kPlain, kFabric, kCapped };

/// The rack-scale cap over the liveness floor: ondemand's uncapped peak
/// is about 1.85 times the floor on this queue, so the cap binds.
constexpr double kRackCapOverFloor = 1.3;

/// Plain; four racks striped over the flat order behind a 4:1, 4-link
/// spine; or ondemand under a cap that binds.
MixOptions rack_options(const std::vector<NodeSpec>& rack, RackMode mode) {
  MixOptions opts;
  if (mode == RackMode::kFabric) {
    int nodes = 0;
    for (const auto& spec : rack) nodes += spec.count;
    opts.fabric.modeled = true;
    for (int i = 0; i < nodes; ++i) opts.fabric.topology.rack_of.push_back(i % 4);
    opts.fabric.topology.spine_oversub = 4.0;
    opts.fabric.topology.spine_multipath = 4;
  } else if (mode == RackMode::kCapped) {
    opts.power.governor = power::GovernorKind::kOndemand;
    opts.power.rack_cap_w = kRackCapOverFloor * liveness_floor(rack);
  }
  return opts;
}

/// One fixture line per (policy, mode) of the rack-scale set.
std::string render_rack() {
  struct Config {
    MixPolicy policy;
    RackMode mode;
    const char* name;
  };
  constexpr Config kConfigs[] = {
      {MixPolicy::kEarliestFinish, RackMode::kPlain, "plain"},
      {MixPolicy::kEarliestFinish, RackMode::kFabric, "fabric"},
      {MixPolicy::kEarliestFinish, RackMode::kCapped, "ondemand-cap"},
      {MixPolicy::kClassAware, RackMode::kPlain, "plain"},
      {MixPolicy::kClassAware, RackMode::kFabric, "fabric"},
      {MixPolicy::kClassAware, RackMode::kCapped, "ondemand-cap"},
      {MixPolicy::kRoundRobin, RackMode::kPlain, "plain"},
      {MixPolicy::kRackLocal, RackMode::kFabric, "fabric"},
  };
  Characterizer ch;
  const std::vector<NodeSpec> rack = comparison_racks(64)[2];  // 32 Xeon, then 109 Atom
  std::ostringstream out;
  for (const Config& c : kConfigs) {
    MixResult r = simulate_mix(ch, rack_jobs(), rack, c.policy, 0, rack_options(rack, c.mode));
    out << to_string(c.policy) << ' ' << c.name << fingerprint(r) << '\n';
  }
  return out.str();
}

/// Compares `live` with the fixture line by line, so a divergence names
/// its configuration; with BVL_UPDATE_GOLDEN set, rewrites the fixture.
void expect_fixture(const char* name, const std::string& live) {
  const std::string path = fixture_path(name);
  if (std::getenv("BVL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << live;
    GTEST_SKIP() << "fixture regenerated at " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing fixture " << path << " (run once with BVL_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << f.rdbuf();

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

TEST(MixGolden, BatchDispatchMatchesFixture) { expect_fixture("MIX.golden", render_all()); }

TEST(BatchRackGolden, EveryDecisionMatchesFixture) {
  expect_fixture("BATCH_RACK.golden", render_rack());
}

}  // namespace
}  // namespace bvl::core
