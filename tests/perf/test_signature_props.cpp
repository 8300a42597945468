// Cross-machine property sweeps over every calibrated signature: the
// invariants that make the big-vs-little comparison meaningful must
// hold for every (workload, phase, machine, frequency) combination,
// not just the ones the paper plots.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/server_config.hpp"
#include "perf/calibration.hpp"
#include "workloads/registry.hpp"

namespace bvl::perf {
namespace {

class SignatureSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  const arch::Signature& sig() const {
    auto [wl_idx, phase] = GetParam();
    const auto& cal = calibration_for(wl::long_name(wl::all_workloads()[static_cast<std::size_t>(wl_idx)]));
    return phase == 0 ? cal.map_sig : cal.reduce_sig;
  }
};

TEST_P(SignatureSweep, XeonIpcAlwaysAboveAtom) {
  arch::CoreModel xeon = arch::xeon_e5_2420().make_core_model();
  arch::CoreModel atom = arch::atom_c2758().make_core_model();
  for (double ws : {512e3, 4e6, 64e6}) {
    for (Hertz f : arch::paper_frequency_sweep()) {
      EXPECT_GT(xeon.ipc(sig(), ws, f, 4), atom.ipc(sig(), ws, f, 4))
          << sig().name << " ws=" << ws;
    }
  }
}

TEST_P(SignatureSweep, IpcBoundedByIssueWidth) {
  for (const auto& server : arch::paper_servers()) {
    arch::CoreModel m = server.make_core_model();
    double ipc = m.ipc(sig(), 1e6, 1.8 * GHz, 1);
    EXPECT_GT(ipc, 0.05) << server.name;
    EXPECT_LE(ipc, server.core.issue_width) << server.name;
  }
}

TEST_P(SignatureSweep, FrequencyNeverHurtsTime) {
  for (const auto& server : arch::paper_servers()) {
    arch::CoreModel m = server.make_core_model();
    double prev = 1e300;
    for (Hertz f : arch::paper_frequency_sweep()) {
      double t = 1e9 * m.cpi(sig(), 8e6, f, 4).total() / f;
      EXPECT_LT(t, prev) << server.name;
      prev = t;
    }
  }
}

TEST_P(SignatureSweep, DramShareGrowsWithWorkingSet) {
  // The phase's memory-boundedness must increase with working set on
  // both machines — the mechanism behind every data-size trend.
  for (const auto& server : arch::paper_servers()) {
    arch::CoreModel m = server.make_core_model();
    double prev_share = -1;
    for (double ws : {256e3, 2e6, 16e6, 128e6}) {
      arch::CpiBreakdown b = m.cpi(sig(), ws, 1.8 * GHz, 4);
      double share = b.dram / b.total();
      EXPECT_GE(share, prev_share - 1e-9) << server.name << " ws=" << ws;
      prev_share = share;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCalibratedSignatures, SignatureSweep,
                         ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 2)));

}  // namespace
}  // namespace bvl::perf
