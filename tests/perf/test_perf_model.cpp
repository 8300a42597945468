// Perf-overlay tests: calibration table validity, pricing sanity,
// model monotonicity properties across the operating envelope, and the
// closed form's phase-term mechanisms (overlap, waves, backoff).
#include "perf/perf_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mapreduce/engine.hpp"
#include "perf/calibration.hpp"
#include "perf/task_cost.hpp"
#include "util/error.hpp"
#include "workloads/registry.hpp"

namespace bvl::perf {
namespace {

mr::JobTrace trace_for(wl::WorkloadId id, Bytes input = 64 * MB, Bytes block = 16 * MB) {
  auto def = wl::make_workload(id);
  mr::Engine engine;
  mr::JobConfig cfg;
  cfg.input_size = input;
  cfg.block_size = block;
  cfg.spill_buffer = 4 * MB;
  cfg.sim_scale = std::max(1.0, static_cast<double>(input) / (4.0 * MB));
  return engine.run(*def, cfg);
}

TEST(Calibration, AllSixWorkloadsHaveValidSignatures) {
  for (wl::WorkloadId id : wl::all_workloads()) {
    const WorkloadCalibration& c = calibration_for(wl::long_name(id));
    EXPECT_NO_THROW(arch::validate(c.map_sig));
    EXPECT_NO_THROW(arch::validate(c.reduce_sig));
    EXPECT_GT(c.map_costs.per_record, 0);
  }
  EXPECT_THROW(calibration_for("Unknown"), Error);
  EXPECT_NO_THROW(arch::validate(framework_signature()));
}

TEST(PerfModel, PricesAllPhasesPositive) {
  PerfModel model(arch::xeon_e5_2420());
  mr::JobTrace t = trace_for(wl::WorkloadId::kWordCount);
  RunResult r = model.price(t, 1.8 * GHz, 4);
  EXPECT_GT(r.map.time, 0);
  EXPECT_GT(r.reduce.time, 0);
  EXPECT_GT(r.other.time, 0);
  EXPECT_GT(r.map.energy, 0);
  EXPECT_GT(r.map.dynamic_power, 0);
  EXPECT_GT(r.map.avg_ipc, 0);
  EXPECT_NEAR(r.total_time(), r.map.time + r.reduce.time + r.other.time, 1e-9);
  EXPECT_NEAR(r.whole().energy, r.total_energy(), 1e-6);
}

TEST(PerfModel, MapOnlyJobHasZeroReducePhase) {
  PerfModel model(arch::atom_c2758());
  mr::JobTrace t = trace_for(wl::WorkloadId::kSort);
  RunResult r = model.price(t, 1.8 * GHz, 4);
  EXPECT_DOUBLE_EQ(r.reduce.time, 0.0);
  EXPECT_DOUBLE_EQ(r.reduce.energy, 0.0);
}

TEST(PerfModel, TimeMonotoneNonIncreasingInFrequency) {
  for (const auto& server : arch::paper_servers()) {
    PerfModel model(server);
    for (wl::WorkloadId id : {wl::WorkloadId::kWordCount, wl::WorkloadId::kSort}) {
      mr::JobTrace t = trace_for(id);
      double prev = 1e18;
      for (Hertz f : arch::paper_frequency_sweep()) {
        double now = model.price(t, f, 4).total_time();
        EXPECT_LE(now, prev * 1.0000001) << server.name << " " << wl::long_name(id);
        prev = now;
      }
    }
  }
}

TEST(PerfModel, MoreSlotsNeverSlower) {
  PerfModel model(arch::xeon_e5_2420());
  mr::JobTrace t = trace_for(wl::WorkloadId::kWordCount, 64 * MB, 8 * MB);  // 8 tasks
  double prev = 1e18;
  for (int slots : {1, 2, 4, 8}) {
    double now = model.price(t, 1.8 * GHz, slots).total_time();
    EXPECT_LE(now, prev * 1.0000001) << slots;
    prev = now;
  }
}

TEST(PerfModel, XeonFasterAtomLowerPower) {
  PerfModel xeon(arch::xeon_e5_2420()), atom(arch::atom_c2758());
  for (wl::WorkloadId id : wl::all_workloads()) {
    mr::JobTrace t = trace_for(id);
    RunResult rx = xeon.price(t, 1.8 * GHz, 4);
    RunResult ra = atom.price(t, 1.8 * GHz, 4);
    EXPECT_LT(rx.total_time(), ra.total_time()) << wl::long_name(id);
    EXPECT_GT(rx.whole().dynamic_power, ra.whole().dynamic_power) << wl::long_name(id);
  }
}

TEST(PerfModel, CompressionReducesDeviceAndNetworkLoad) {
  // Price the same TeraSort trace with compression on vs off.
  auto def = wl::make_workload(wl::WorkloadId::kTeraSort);
  mr::Engine engine;
  mr::JobConfig cfg;
  cfg.input_size = 64 * MB;
  cfg.block_size = 16 * MB;
  cfg.spill_buffer = 4 * MB;
  mr::JobTrace with = engine.run(*def, cfg);
  mr::JobTrace without = with;
  without.config.compress_map_output = false;

  PerfModel atom(arch::atom_c2758());
  RunResult rc = atom.price(with, 1.8 * GHz, 4);
  RunResult ru = atom.price(without, 1.8 * GHz, 4);
  EXPECT_LT(rc.map.io_time, ru.map.io_time);
  EXPECT_LT(rc.reduce.net_time, ru.reduce.net_time);
}

TEST(PerfModel, RejectsBadInput) {
  PerfModel model(arch::xeon_e5_2420());
  mr::JobTrace t = trace_for(wl::WorkloadId::kWordCount);
  EXPECT_THROW(model.price(t, 0.0, 4), Error);
}

TEST(PhaseResult, CombineWeightsPowerByTime) {
  PhaseResult a, b;
  a.time = 10;
  a.energy = 1000;  // 100 W
  a.avg_ipc = 1.0;
  b.time = 30;
  b.energy = 600;  // 20 W
  b.avg_ipc = 2.0;
  PhaseResult c = PhaseResult::combine(a, b);
  EXPECT_DOUBLE_EQ(c.time, 40);
  EXPECT_DOUBLE_EQ(c.energy, 1600);
  EXPECT_DOUBLE_EQ(c.dynamic_power, 40.0);
  EXPECT_DOUBLE_EQ(c.avg_ipc, (1.0 * 10 + 2.0 * 30) / 40);
}

TEST(PhaseResult, CombineOfTwoZeroDurationPhasesIsZeroNotNaN) {
  // The time-weighted power/IPC means divide by combined time; an
  // absent phase (map-only job, skipped reduce) must not poison the
  // whole-run aggregate with 0/0.
  PhaseResult zero;
  PhaseResult c = PhaseResult::combine(zero, zero);
  EXPECT_DOUBLE_EQ(c.time, 0.0);
  EXPECT_DOUBLE_EQ(c.energy, 0.0);
  EXPECT_DOUBLE_EQ(c.dynamic_power, 0.0);
  EXPECT_DOUBLE_EQ(c.avg_ipc, 0.0);
  EXPECT_FALSE(std::isnan(c.dynamic_power));
  EXPECT_FALSE(std::isnan(c.avg_ipc));
}

TEST(PhaseResult, CombineWithZeroDurationPhaseKeepsOtherSide) {
  PhaseResult a;
  a.time = 12;
  a.energy = 600;  // 50 W
  a.avg_ipc = 1.5;
  a.cpu_time = 7;
  PhaseResult zero;
  for (const PhaseResult& c : {PhaseResult::combine(a, zero), PhaseResult::combine(zero, a)}) {
    EXPECT_DOUBLE_EQ(c.time, 12);
    EXPECT_DOUBLE_EQ(c.energy, 600);
    EXPECT_DOUBLE_EQ(c.dynamic_power, 50.0);
    EXPECT_DOUBLE_EQ(c.avg_ipc, 1.5);
    EXPECT_DOUBLE_EQ(c.cpu_time, 7);
  }
}

TEST(RunResult, WholeOfMapOnlyJobHasFinitePower) {
  // End to end: a priced map-only job (zero reduce phase) must fold
  // into whole() without NaNs.
  PerfModel model(arch::atom_c2758());
  mr::JobTrace t = trace_for(wl::WorkloadId::kSort);
  RunResult r = model.price(t, 1.8 * GHz, 4);
  PhaseResult w = r.whole();
  EXPECT_TRUE(std::isfinite(w.dynamic_power));
  EXPECT_TRUE(std::isfinite(w.avg_ipc));
  EXPECT_GT(w.time, 0);
}

// Property sweep: pricing stays finite/positive across the envelope.
class PriceSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(PriceSweep, AlwaysFiniteAndPositive) {
  auto [wl_idx, freq_ghz, slots] = GetParam();
  wl::WorkloadId id = wl::all_workloads()[static_cast<std::size_t>(wl_idx)];
  mr::JobTrace t = trace_for(id);
  for (const auto& server : arch::paper_servers()) {
    PerfModel model(server);
    RunResult r = model.price(t, freq_ghz * GHz, slots);
    EXPECT_GT(r.total_time(), 0) << server.name;
    EXPECT_GT(r.total_energy(), 0) << server.name;
    EXPECT_TRUE(std::isfinite(r.total_time()));
    EXPECT_TRUE(std::isfinite(r.total_energy()));
  }
}

INSTANTIATE_TEST_SUITE_P(Envelope, PriceSweep,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(1.2, 1.8),
                                            ::testing::Values(2, 8)));

// ---------------------------------------------------------------------------
// Phase terms: the closed form's mechanisms, one at a time, on
// hand-built per-task costs.
// ---------------------------------------------------------------------------

/// `n` identical fault-free WordCount map tasks of `inst` instructions.
PhaseCost uniform_phase(int n, double inst) {
  PhaseCost pc;
  pc.sig = &calibration_for("WordCount").map_sig;
  for (int i = 0; i < n; ++i) {
    TaskCost tc;
    tc.inst = inst;
    tc.device_bytes = 1e6;
    pc.tasks.push_back(tc);
  }
  return pc;
}

TEST(PerfModel, OverlapPenalizesOnlyTheShorterDemands) {
  ClusterConfig cluster;
  PerfModel model(arch::xeon_e5_2420(), {}, cluster);
  // The longest demand (10 s) hides the rest; the penalty is charged
  // on the 4 + 1 s that could not hide under it.
  EXPECT_DOUBLE_EQ(model.overlap_s(10, 4, 1), cluster.overlap_penalty * 5);
  EXPECT_DOUBLE_EQ(model.overlap_s(1, 10, 4), model.overlap_s(10, 4, 1));
  EXPECT_DOUBLE_EQ(model.overlap_s(4, 1, 10), model.overlap_s(10, 4, 1));
  EXPECT_DOUBLE_EQ(model.overlap_s(7, 0, 0), 0.0);
}

TEST(PhaseTerms, ActiveSlotsAreBoundedBySlotsTasksAndCores) {
  PerfModel atom(arch::atom_c2758());  // 8 cores
  const double net = 117e6;
  PhaseCost four = uniform_phase(4, 1e9);
  EXPECT_EQ(atom.phase_terms(four, 1.8 * GHz, 2, net).active, 2);
  EXPECT_EQ(atom.phase_terms(four, 1.8 * GHz, 64, net).active, 4);
  PhaseCost many = uniform_phase(20, 1e9);
  EXPECT_EQ(atom.phase_terms(many, 1.8 * GHz, 64, net).active, 8);
  // A task-less phase still occupies one slot.
  PhaseCost setup;
  setup.fixed_s = 2.0;
  EXPECT_EQ(atom.phase_terms(setup, 1.8 * GHz, 8, net).active, 1);
}

TEST(PhaseTerms, EachWaveLastsAsLongAsItsSlowestTask) {
  PerfModel xeon(arch::xeon_e5_2420());
  const double net = 117e6;
  auto cpu_of = [&](const PhaseCost& pc) {
    return xeon.phase_terms(pc, 1.8 * GHz, 2, net).cpu;
  };
  // Four tasks on two slots: waves {0, 1} and {2, 3}.
  PhaseCost pc = uniform_phase(4, 1e9);
  const PhaseTerms base = xeon.phase_terms(pc, 1.8 * GHz, 2, net);
  ASSERT_GT(base.task_s, 0);

  PhaseCost one_slow = pc;
  one_slow.tasks[1].time_factor = 3.0;
  EXPECT_NEAR(cpu_of(one_slow) - base.cpu, 2.0 * base.task_s, 1e-9 * base.cpu);

  // A second straggler in the same wave costs nothing more ...
  PhaseCost same_wave = one_slow;
  same_wave.tasks[0].time_factor = 3.0;
  EXPECT_DOUBLE_EQ(cpu_of(same_wave), cpu_of(one_slow));

  // ... one in the other wave stretches that wave too.
  PhaseCost both_waves = one_slow;
  both_waves.tasks[3].time_factor = 3.0;
  EXPECT_NEAR(cpu_of(both_waves) - base.cpu, 4.0 * base.task_s, 1e-9 * base.cpu);
}

TEST(PerfModel, RetryBackoffAddsTimeButNoEnergy) {
  // The paper's idle-subtracted meter reads a waiting slot as zero
  // dynamic power: backoff stretches the phase, not its energy.
  PerfModel xeon(arch::xeon_e5_2420());
  PhaseCost calm = uniform_phase(4, 1e9);
  PhaseCost waiting = calm;
  waiting.tasks[0].backoff_s = 6.0;
  waiting.tasks[3].backoff_s = 2.0;
  PhaseResult r0 = xeon.price_phase(calm, 1.8 * GHz, 4);
  PhaseResult r1 = xeon.price_phase(waiting, 1.8 * GHz, 4);
  // 8 s of backoff amortized over 4 active slots.
  EXPECT_NEAR(r1.time - r0.time, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(r1.energy, r0.energy);
  EXPECT_DOUBLE_EQ(r1.dynamic_power, r1.energy / r1.time);
  EXPECT_LT(r1.dynamic_power, r0.dynamic_power);
}

TEST(RunResult, PhaseEnergyIsDynamicPowerTimesTime) {
  // Every energy the model reports is its own integral of the phase's
  // idle-subtracted dynamic power over the phase's wall-clock time.
  for (const auto& server : arch::paper_servers()) {
    PerfModel model(server);
    RunResult r = model.price(trace_for(wl::WorkloadId::kWordCount), 1.6 * GHz, 4);
    for (const PhaseResult* p : {&r.map, &r.reduce, &r.other}) {
      EXPECT_DOUBLE_EQ(p->energy, p->dynamic_power * p->time) << server.name;
    }
  }
}

TEST(RunResult, WholePowerLiesBetweenPhaseExtremes) {
  PerfModel model(arch::xeon_e5_2420());
  RunResult r = model.price(trace_for(wl::WorkloadId::kGrep), 1.8 * GHz, 4);
  double lo = 1e300, hi = 0;
  for (const PhaseResult* p : {&r.map, &r.reduce, &r.other}) {
    if (p->time <= 0) continue;
    lo = std::min(lo, p->dynamic_power);
    hi = std::max(hi, p->dynamic_power);
  }
  ASSERT_LT(lo, hi);
  const PhaseResult w = r.whole();
  EXPECT_GE(w.dynamic_power, lo);
  EXPECT_LE(w.dynamic_power, hi);
  EXPECT_NEAR(w.dynamic_power * w.time, r.total_energy(), 1e-9 * r.total_energy());
}

}  // namespace
}  // namespace bvl::perf
