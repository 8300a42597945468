#include "arch/core_model.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "arch/server_config.hpp"
#include "util/error.hpp"

namespace bvl::arch {
namespace {

Signature hadoop_like() {
  Signature s;
  s.name = "hadoop-like";
  s.ilp = 2.2;
  s.mem_refs_per_inst = 0.36;
  s.branches_per_inst = 0.16;
  s.branch_miss_rate = 0.025;
  s.locality_theta = 0.9;
  s.working_set_per_input_byte = 0.5;
  s.prefetchability = 0.4;
  return s;
}

Signature spec_like() {
  Signature s = hadoop_like();
  s.name = "spec-like";
  s.ilp = 3.6;
  s.mem_refs_per_inst = 0.30;
  s.locality_theta = 1.4;
  s.prefetchability = 0.75;
  s.branch_miss_rate = 0.012;
  return s;
}

TEST(CoreModel, BigCoreHasHigherIpc) {
  CoreModel xeon = xeon_e5_2420().make_core_model();
  CoreModel atom = atom_c2758().make_core_model();
  double ws = 2e6;
  EXPECT_GT(xeon.ipc(hadoop_like(), ws, 1.8 * GHz), atom.ipc(hadoop_like(), ws, 1.8 * GHz));
}

TEST(CoreModel, HighIlpCodeGainsMoreOnWideCore) {
  // Fig. 1's structure: the big-vs-little IPC gap is wider for
  // SPEC-like code (ILP beyond 2) than for Hadoop-like code.
  CoreModel xeon = xeon_e5_2420().make_core_model();
  CoreModel atom = atom_c2758().make_core_model();
  double ws = 2e6;
  double gap_spec = xeon.ipc(spec_like(), ws, 1.8 * GHz) / atom.ipc(spec_like(), ws, 1.8 * GHz);
  double gap_hadoop =
      xeon.ipc(hadoop_like(), ws, 1.8 * GHz) / atom.ipc(hadoop_like(), ws, 1.8 * GHz);
  EXPECT_GT(gap_spec, gap_hadoop);
}

TEST(CoreModel, SpecIpcExceedsHadoopIpc) {
  CoreModel xeon = xeon_e5_2420().make_core_model();
  EXPECT_GT(xeon.ipc(spec_like(), 2e6, 1.8 * GHz), xeon.ipc(hadoop_like(), 16e6, 1.8 * GHz));
}

TEST(CoreModel, ExecTimeDecreasesWithFrequencyButSublinearly) {
  CoreModel atom = atom_c2758().make_core_model();
  Signature s = hadoop_like();
  double ws = 64e6;  // memory-heavy working set
  // Seconds for 1e9 instructions: instructions x CPI / frequency.
  Seconds t12 = 1e9 * atom.cpi(s, ws, 1.2 * GHz).total() / (1.2 * GHz);
  Seconds t18 = 1e9 * atom.cpi(s, ws, 1.8 * GHz).total() / (1.8 * GHz);
  EXPECT_LT(t18, t12);
  // DRAM-bound part does not scale: improvement < ideal 33.3%.
  EXPECT_GT(t18 / t12, 1.2 / 1.8);
}

TEST(CoreModel, CpiComponentsAllNonNegative) {
  CoreModel xeon = xeon_e5_2420().make_core_model();
  CpiBreakdown b = xeon.cpi(hadoop_like(), 8e6, 1.6 * GHz, 4);
  EXPECT_GT(b.core, 0);
  EXPECT_GE(b.branch, 0);
  EXPECT_GE(b.cache, 0);
  EXPECT_GE(b.dram, 0);
  EXPECT_NEAR(b.total(), b.core + b.branch + b.cache + b.dram, 1e-12);
  EXPECT_NEAR(b.ipc(), 1.0 / b.total(), 1e-12);
}

TEST(CoreModel, MoreActiveCoresIncreaseSharedCachePressure) {
  CoreModel xeon = xeon_e5_2420().make_core_model();
  Signature s = hadoop_like();
  double alone = xeon.cpi(s, 8e6, 1.8 * GHz, 1).total();
  double crowded = xeon.cpi(s, 8e6, 1.8 * GHz, 6).total();
  EXPECT_GT(crowded, alone);
}

TEST(CoreModel, RejectsInvalidInput) {
  CoreModel xeon = xeon_e5_2420().make_core_model();
  EXPECT_THROW(xeon.cpi(hadoop_like(), 0.0, 1.8 * GHz), Error);
  EXPECT_THROW(xeon.cpi(hadoop_like(), 1e6, 0.0), Error);
  Signature bad = hadoop_like();
  bad.ilp = 100.0;
  EXPECT_THROW(xeon.cpi(bad, 1e6, 1.8 * GHz), Error);
}

// Property sweep: IPC is monotone non-increasing in working set and
// total CPI is positive across the whole operating envelope.
class CoreModelSweep : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(CoreModelSweep, IpcMonotoneInWorkingSet) {
  auto [freq_ghz, active] = GetParam();
  for (const ServerConfig& cfg : paper_servers()) {
    CoreModel m = cfg.make_core_model();
    double prev = 1e9;
    for (double ws : {256e3, 1e6, 4e6, 16e6, 64e6, 256e6}) {
      double ipc = m.ipc(hadoop_like(), ws, freq_ghz * GHz, active);
      EXPECT_GT(ipc, 0.0);
      EXPECT_LE(ipc, prev * 1.0000001) << cfg.name << " ws " << ws;
      prev = ipc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FreqAndOccupancy, CoreModelSweep,
                         ::testing::Combine(::testing::Values(1.2, 1.4, 1.6, 1.8),
                                            ::testing::Values(1, 4, 8)));

// Differential: the batched CPI evaluation (signature terms hoisted
// across a sweep) must reproduce the scalar cpi() bit for bit on
// every field, across mixed signatures, working sets, frequencies and
// occupancies — including signature changes mid-batch, which force a
// re-hoist.
TEST(CpiBatch, BitIdenticalToScalarAcrossMixedSweep) {
  Signature sigs[] = {hadoop_like(), spec_like()};
  for (const ServerConfig& cfg : paper_servers()) {
    CoreModel m = cfg.make_core_model();
    std::vector<CoreModel::CpiPoint> pts;
    for (const Signature& sig : sigs) {
      for (double ws : {64e3, 1e6, 8e6, 64e6, 512e6}) {
        for (double f : {1.2, 1.4, 1.6, 1.8}) {
          for (int active : {1, 4, 8}) pts.push_back({&sig, ws, f * GHz, active});
        }
      }
    }
    // Interleave the two signatures at the tail so the batch has to
    // re-hoist per point, not only per block.
    pts.push_back({&sigs[0], 2e6, 1.8 * GHz, 2});
    pts.push_back({&sigs[1], 2e6, 1.8 * GHz, 2});
    pts.push_back({&sigs[0], 2e6, 1.8 * GHz, 2});

    std::vector<CpiBreakdown> out(pts.size());
    m.cpi_batch(pts.data(), pts.size(), out.data());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      CpiBreakdown want = m.cpi(*pts[i].sig, pts[i].ws_bytes, pts[i].freq, pts[i].active_cores);
      EXPECT_EQ(out[i].core, want.core) << cfg.name << " point " << i;
      EXPECT_EQ(out[i].branch, want.branch) << cfg.name << " point " << i;
      EXPECT_EQ(out[i].cache, want.cache) << cfg.name << " point " << i;
      EXPECT_EQ(out[i].dram, want.dram) << cfg.name << " point " << i;
    }
  }
}

TEST(CpiBatch, RejectsNullSignatureAndBadPoints) {
  CoreModel m = xeon_e5_2420().make_core_model();
  Signature sig = hadoop_like();
  CpiBreakdown out;
  CoreModel::CpiPoint null_sig{nullptr, 1e6, 1.8 * GHz, 1};
  EXPECT_THROW(m.cpi_batch(&null_sig, 1, &out), Error);
  CoreModel::CpiPoint bad_ws{&sig, 0.0, 1.8 * GHz, 1};
  EXPECT_THROW(m.cpi_batch(&bad_ws, 1, &out), Error);
  CoreModel::CpiPoint bad_freq{&sig, 1e6, 0.0, 1};
  EXPECT_THROW(m.cpi_batch(&bad_freq, 1, &out), Error);
}

}  // namespace
}  // namespace bvl::arch
