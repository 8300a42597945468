// Event-vs-analytic pricer agreement. Both pricers consume the same
// per-task extraction (perf/task_cost) and share the calibrated
// serialization economics, so on fault-free single-job traces the
// replayed timeline must land within 5% of the closed form — in
// practice it matches it exactly, because the phase floor replicates
// the closed form componentwise and a clean replay never exceeds it.
// Fault-bearing traces may diverge more (the timeline sees stragglers
// and wave quantization the closed form only averages), but stay
// bounded.
#include "perf/pricer.hpp"

#include <gtest/gtest.h>

#include "core/characterizer.hpp"
#include "workloads/registry.hpp"

namespace bvl::perf {
namespace {

core::Characterizer& shared_ch() {
  static core::Characterizer ch;  // trace cache shared across the suite
  return ch;
}

RunResult event_run(const core::RunSpec& spec, const arch::ServerConfig& server) {
  return shared_ch()
      .event_pricer(server, sim::NicPresetId::k1GbE)
      .price(shared_ch().trace(spec), spec.freq, spec.mappers);
}

core::RunSpec spec_for(wl::WorkloadId id, int slots, bool faulty) {
  core::RunSpec s;
  s.workload = id;
  s.mappers = slots;
  if (faulty) {
    s.fault.seed = 7;
    s.fault.fail_prob = 0.10;
    s.fault.straggler_prob = 0.20;
    s.fault.straggler_factor = 8.0;
    s.fault.speculative = true;
  }
  return s;
}

TEST(PricerAgreement, SixWorkloadsWidthsAndFaults) {
  for (wl::WorkloadId id : wl::all_workloads()) {
    for (bool faulty : {false, true}) {
      // Clean replays reproduce the closed form; faulty ones may see
      // queueing/straggler structure the closed form averages away.
      const double tol = faulty ? 0.25 : 0.05;
      for (int width : {1, 2, 4}) {
        core::RunSpec spec = spec_for(id, width, faulty);
        for (const auto& server : arch::paper_servers()) {
          RunResult a = shared_ch().run(spec, server);
          RunResult e = event_run(spec, server);
          std::string label = wl::short_name(id) + "/" + server.name + "/w" +
                              std::to_string(width) + (faulty ? "/faulty" : "/clean");
          ASSERT_GT(a.total_time(), 0) << label;
          EXPECT_NEAR(e.total_time() / a.total_time(), 1.0, tol) << label;
          EXPECT_NEAR(e.total_energy() / a.total_energy(), 1.0, tol) << label;
        }
      }
    }
  }
}

TEST(PricerAgreement, EventResultIsStructurallySound) {
  core::RunSpec spec = spec_for(wl::WorkloadId::kWordCount, 4, false);
  RunResult r = event_run(spec, arch::xeon_e5_2420());
  EXPECT_GT(r.map.time, 0);
  EXPECT_GT(r.map.energy, 0);
  EXPECT_GT(r.map.dynamic_power, 0);
  EXPECT_GT(r.other.time, 0);
  EXPECT_NEAR(r.total_time(), r.map.time + r.reduce.time + r.other.time, 1e-9);
}

TEST(PricerAgreement, JobSimTaskEnergiesSumToPhaseEnergy) {
  const arch::ServerConfig server = arch::xeon_e5_2420();
  core::RunSpec spec = spec_for(wl::WorkloadId::kSort, 4, false);
  const mr::JobTrace& t = shared_ch().trace(spec);
  EventPricer pricer(server);
  JobSim js = pricer.job_sim(t, spec.freq, spec.mappers);
  EXPECT_EQ(js.map_tasks.size(), t.map_tasks.size());
  EXPECT_EQ(js.reduce_tasks.size(), t.reduce_tasks.size());
  Joules map_sum = 0;
  for (const auto& task : js.map_tasks) {
    EXPECT_GT(task.cpu_s, 0);
    map_sum += task.energy;
  }
  EXPECT_NEAR(map_sum, js.priced.map.energy, 1e-6 * js.priced.map.energy + 1e-9);
  EXPECT_NEAR(js.other_s, js.priced.other.time, 1e-12);
}

}  // namespace
}  // namespace bvl::perf
