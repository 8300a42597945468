#include <gtest/gtest.h>

#include "power/power_meter.hpp"
#include "power/power_model.hpp"
#include "util/error.hpp"

namespace bvl::power {
namespace {

arch::ServerConfig xeon() { return arch::xeon_e5_2420(); }
arch::ServerConfig atom() { return arch::atom_c2758(); }

TEST(PowerModel, XeonDrawsFarMoreThanAtom) {
  PowerModel px(xeon()), pa(atom());
  SystemLoad load{.active_cores = 8, .avg_ipc = 1.0, .mem_gbps = 2.0, .disk_duty = 0.3};
  Watts wx = px.dynamic_power(load, 1.8 * GHz);
  Watts wa = pa.dynamic_power(load, 1.8 * GHz);
  // The EDP story requires a big power gap (server ~100 W dynamic vs
  // microserver ~15-20 W).
  EXPECT_GT(wx, 4.0 * wa);
  EXPECT_GT(wx, 60.0);
  EXPECT_LT(wa, 30.0);
}

TEST(PowerModel, PowerRisesWithFrequencyAndVoltage) {
  PowerModel p(atom());
  SystemLoad load{.active_cores = 4, .avg_ipc = 0.8, .mem_gbps = 1.0, .disk_duty = 0.0};
  Watts prev = 0;
  for (Hertz f : arch::paper_frequency_sweep()) {
    Watts w = p.dynamic_power(load, f);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

TEST(PowerModel, PowerScalesWithActiveCores) {
  PowerModel p(xeon());
  SystemLoad l2{.active_cores = 2, .avg_ipc = 1.0, .mem_gbps = 0.0, .disk_duty = 0.0};
  SystemLoad l8 = l2;
  l8.active_cores = 8;
  EXPECT_GT(p.dynamic_power(l8, 1.8 * GHz), p.dynamic_power(l2, 1.8 * GHz) * 1.8);
}

TEST(PowerModel, HigherIpcMeansMoreActivity) {
  PowerModel p(xeon());
  SystemLoad idleish{.active_cores = 4, .avg_ipc = 0.2, .mem_gbps = 0.0, .disk_duty = 0.0};
  SystemLoad busy = idleish;
  busy.avg_ipc = 3.5;
  EXPECT_GT(p.dynamic_power(busy, 1.8 * GHz), p.dynamic_power(idleish, 1.8 * GHz));
}

TEST(PowerModel, TotalIsIdlePlusDynamic) {
  // A node's whole draw is the server's idle floor plus the dynamic
  // power of its busy cores at full activity.
  const arch::ServerConfig server = atom();
  PowerModel p(server);
  SystemLoad load{.active_cores = 1, .avg_ipc = static_cast<double>(server.core.issue_width)};
  EXPECT_NEAR(p.node_draw(1, 1.6 * GHz),
              server.power.system_idle_w + p.dynamic_power(load, 1.6 * GHz), 1e-9);
}

TEST(PowerModel, RejectsBadLoad) {
  PowerModel p(atom());
  EXPECT_THROW(p.dynamic_power({.active_cores = -1}, 1.8 * GHz), Error);
  EXPECT_THROW(p.dynamic_power({.active_cores = 1, .avg_ipc = 1, .mem_gbps = 0, .disk_duty = 2.0},
                               1.8 * GHz),
               Error);
}

TEST(PowerMeter, ExactEnergyIntegration) {
  PowerMeter m;
  m.record(10.0, 100.0);
  m.record(5.0, 40.0);
  EXPECT_DOUBLE_EQ(m.energy(), 1200.0);
  EXPECT_DOUBLE_EQ(m.elapsed(), 15.0);
}

TEST(PowerMeter, OneHertzSampleCount) {
  PowerMeter m(1.0);
  m.record(12.5, 80.0);
  auto ss = m.samples();
  EXPECT_EQ(ss.size(), 12u);  // samples at t=1..12
  EXPECT_DOUBLE_EQ(ss.front().power, 80.0);
}

TEST(PowerMeter, SamplesTrackSegments) {
  PowerMeter m(1.0);
  m.record(3.0, 100.0);
  m.record(3.0, 50.0);
  auto ss = m.samples();
  ASSERT_EQ(ss.size(), 6u);
  EXPECT_DOUBLE_EQ(ss[1].power, 100.0);
  EXPECT_DOUBLE_EQ(ss[4].power, 50.0);
}

TEST(PowerMeter, PaperMethodologySubtractsIdle) {
  // "collected the average power and subtracted the system idle power
  // to estimate the dynamic power" (Sec. 1.1).
  PowerMeter m(1.0);
  m.record(10.0, 130.0);
  EXPECT_DOUBLE_EQ(m.average_dynamic_power(95.0), 35.0);
  EXPECT_DOUBLE_EQ(m.dynamic_energy(95.0), 350.0);
  // Idle above reading clamps at zero rather than going negative.
  EXPECT_DOUBLE_EQ(m.average_dynamic_power(200.0), 0.0);
}

TEST(PowerMeter, SampledEstimateConvergesToExactIntegral) {
  PowerMeter m(1.0);
  // Alternating load, long run: sampled mean approaches true mean.
  for (int i = 0; i < 200; ++i) m.record(1.7, i % 2 ? 120.0 : 60.0);
  double exact_avg = m.energy() / m.elapsed();
  double sampled_avg = m.average_dynamic_power(0.0);
  EXPECT_NEAR(sampled_avg, exact_avg, 3.0);
}

TEST(PowerMeter, ShortRunStillProducesOneSample) {
  PowerMeter m(1.0);
  m.record(0.4, 77.0);
  auto ss = m.samples();
  ASSERT_EQ(ss.size(), 1u);
  EXPECT_DOUBLE_EQ(ss[0].power, 77.0);
}

TEST(PowerMeter, ResetClears) {
  PowerMeter m;
  m.record(5, 10);
  m.reset();
  EXPECT_DOUBLE_EQ(m.energy(), 0.0);
  EXPECT_TRUE(m.samples().empty());
}

TEST(PowerMeter, RejectsNegativeInput) {
  PowerMeter m;
  EXPECT_THROW(m.record(-1, 10), Error);
  EXPECT_THROW(m.record(1, -10), Error);
  EXPECT_THROW(PowerMeter(0.0), Error);
}

}  // namespace
}  // namespace bvl::power
