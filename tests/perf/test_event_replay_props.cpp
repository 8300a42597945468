// Property sweep of the single-node event replay (perf::EventPricer)
// over the six paper workloads on both servers: the timeline
// counterpart of the closed form's PerfModel and SignatureSweep
// checks. Each instance characterizes one workload and replays it.
//
//   - Each step down the DVFS table lengthens the replay: compute
//     stretches, disk and NIC do not shrink, so no phase gets shorter
//     and the job as a whole gets longer.
//   - The replay never undercuts the closed form it is floored at,
//     phase by phase, on a clean and on a fault-bearing trace; the
//     task-less "other" phase is the closed form's own.
//   - The NIC preset, the one input besides the server and the DFS
//     and cluster configs, moves only the network term: a faster
//     preset never slows the replay and leaves compute and disk as
//     they were.
#include "perf/pricer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/dvfs.hpp"
#include "core/characterizer.hpp"
#include "workloads/registry.hpp"

namespace bvl::perf {
namespace {

core::Characterizer& shared_ch() {
  static core::Characterizer ch;  // trace cache shared across the instances of one process
  return ch;
}

class EventReplaySweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  wl::WorkloadId workload() const {
    return wl::all_workloads()[static_cast<std::size_t>(std::get<0>(GetParam()))];
  }
  arch::ServerConfig server() const {
    return arch::paper_servers()[static_cast<std::size_t>(std::get<1>(GetParam()))];
  }
  core::RunSpec spec(bool faulty = false) const {
    core::RunSpec s;
    s.workload = workload();
    if (faulty) {
      s.fault.seed = 7;
      s.fault.fail_prob = 0.10;
      s.fault.straggler_prob = 0.20;
      s.fault.straggler_factor = 8.0;
      s.fault.speculative = true;
    }
    return s;
  }
  const mr::JobTrace& trace(bool faulty = false) const { return shared_ch().trace(spec(faulty)); }
};

TEST_P(EventReplaySweep, EachDvfsStepDownLengthensTheReplay) {
  const core::RunSpec s = spec();
  EventPricer pricer(server(), shared_ch().dfs(), shared_ch().cluster_config());
  const std::vector<Hertz> sweep = arch::paper_frequency_sweep();
  ASSERT_GE(sweep.size(), 2u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    RunResult lo = pricer.price(trace(), sweep[i - 1], s.mappers);
    RunResult hi = pricer.price(trace(), sweep[i], s.mappers);
    ASSERT_LT(sweep[i - 1], sweep[i]);
    const std::string at = std::to_string(sweep[i - 1] / GHz) + " vs " +
                           std::to_string(sweep[i] / GHz) + " GHz";
    EXPECT_GE(lo.map.time, hi.map.time) << at;
    EXPECT_GE(lo.reduce.time, hi.reduce.time) << at;
    EXPECT_GT(lo.total_time(), hi.total_time()) << at;
  }
}

TEST_P(EventReplaySweep, ReplayNeverUndercutsTheClosedForm) {
  for (bool faulty : {false, true}) {
    const core::RunSpec s = spec(faulty);
    const char* label = faulty ? "faulty" : "clean";
    RunResult a = shared_ch().run(s, server());
    RunResult e = shared_ch()
                      .event_pricer(server(), sim::NicPresetId::k1GbE)
                      .price(trace(faulty), s.freq, s.mappers);
    ASSERT_GT(a.total_time(), 0) << label;
    EXPECT_GE(e.map.time, a.map.time * (1 - 1e-12)) << label;
    EXPECT_GE(e.reduce.time, a.reduce.time * (1 - 1e-12)) << label;
    EXPECT_EQ(e.other.time, a.other.time) << label;
    EXPECT_EQ(e.other.energy, a.other.energy) << label;
    EXPECT_GE(e.total_time(), a.total_time() * (1 - 1e-12)) << label;
  }
}

TEST_P(EventReplaySweep, FasterNicOnlyShortensTheNetworkTerm) {
  const core::RunSpec s = spec();
  const auto& ch = shared_ch();
  std::vector<RunResult> by_preset;
  for (sim::NicPresetId nic :
       {sim::NicPresetId::k1GbE, sim::NicPresetId::k10GbE, sim::NicPresetId::k40GbE}) {
    EventPricer pricer(server(), ch.dfs(), ch.cluster_config(), nic);
    by_preset.push_back(pricer.price(trace(), s.freq, s.mappers));
  }
  // The identity preset is the default every caller gets.
  RunResult plain =
      EventPricer(server(), ch.dfs(), ch.cluster_config()).price(trace(), s.freq, s.mappers);
  EXPECT_EQ(plain.total_time(), by_preset[0].total_time());
  EXPECT_EQ(plain.total_energy(), by_preset[0].total_energy());
  for (std::size_t i = 1; i < by_preset.size(); ++i) {
    const RunResult& slow = by_preset[i - 1];
    const RunResult& fast = by_preset[i];
    const std::string at = "preset " + std::to_string(i);
    EXPECT_LE(fast.total_time(), slow.total_time()) << at;
    for (auto [f, sl] : {std::pair{&fast.map, &slow.map}, std::pair{&fast.reduce, &slow.reduce}}) {
      EXPECT_LE(f->time, sl->time) << at;
      EXPECT_EQ(f->cpu_time, sl->cpu_time) << at;
      EXPECT_EQ(f->io_time, sl->io_time) << at;
      EXPECT_LE(f->net_time, sl->net_time) << at;
      if (sl->net_time > 0) {
        EXPECT_LT(f->net_time, sl->net_time) << at;
      }
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  const wl::WorkloadId id = wl::all_workloads()[static_cast<std::size_t>(std::get<0>(info.param))];
  return wl::short_name(id) + (std::get<1>(info.param) == 0 ? "_Xeon" : "_Atom");
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, EventReplaySweep,
                         ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 2)),
                         case_name);

}  // namespace
}  // namespace bvl::perf
