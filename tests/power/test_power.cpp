#include <gtest/gtest.h>

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

}  // namespace
}  // namespace bvl::power
