// Trace-driven simulator tests, including the cross-validation of the
// analytical miss-ratio curve against true LRU simulation.
#include "arch/cache_sim.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bvl::arch {
namespace {

CacheLevelConfig small_cache(Bytes capacity, int assoc = 4) {
  return CacheLevelConfig{
      .name = "test", .capacity = capacity, .associativity = assoc, .line_bytes = 64,
      .hit_cycles = 1, .sharer_group = 1};
}

TEST(CacheSim, SequentialFitsAfterWarmup) {
  CacheSim c(small_cache(8 * KB));
  // 8 KB = 128 lines; touch 64 lines twice.
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t line = 0; line < 64; ++line) c.access(line * 64);
  EXPECT_EQ(c.misses(), 64u);       // cold misses only
  EXPECT_EQ(c.accesses(), 128u);
}

TEST(CacheSim, WorkingSetBeyondCapacityThrashes) {
  CacheSim c(small_cache(8 * KB));
  // Cyclic sweep over 4x the capacity with LRU: every access misses.
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t line = 0; line < 512; ++line) c.access(line * 64);
  EXPECT_EQ(c.misses(), c.accesses());
}

TEST(CacheSim, LruKeepsHotLine) {
  CacheSim c(small_cache(4 * KB, /*assoc=*/64));  // fully associative (64 lines)
  // One hot line + streaming cold lines: hot line must stay resident.
  for (int i = 0; i < 500; ++i) {
    c.access(0);                                       // hot
    c.access((1 + static_cast<std::uint64_t>(i % 32)) * 64);  // 32-line stream fits too
  }
  // Re-access the hot line: must hit.
  EXPECT_TRUE(c.access(0));
}

TEST(HierarchySim, MissesFilterThroughLevels) {
  HierarchySim h({small_cache(4 * KB), small_cache(64 * KB)});
  Pcg32 rng(7);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t addr = rng.uniform(0, 32 * KB - 1);  // 32 KB working set
    h.access(addr);
  }
  // L1 (4 KB) misses often; L2 (64 KB) captures the whole set.
  EXPECT_GT(h.global_miss_ratio(0), 5 * h.global_miss_ratio(1));
}

TEST(HierarchySim, AnalyticalCurveTracksSimulatedOrdering) {
  // Cross-validation: across capacities, the analytical model and the
  // LRU simulator must agree on ordering and rough magnitude for a
  // Zipf-like reuse stream.
  Pcg32 rng(99);
  ZipfSampler zipf(8192, 1.1);  // 8192 hot lines, Zipf reuse
  std::vector<Bytes> caps{8 * KB, 32 * KB, 128 * KB, 512 * KB};
  std::vector<double> simulated;
  for (Bytes cap : caps) {
    CacheSim c(small_cache(cap, 8));
    Pcg32 r2(99);
    for (int i = 0; i < 60000; ++i) c.access(zipf.sample(r2) * 64);
    simulated.push_back(static_cast<double>(c.misses()) / static_cast<double>(c.accesses()));
  }
  double ws = 8192.0 * 64;
  double prev_sim = 1.0, prev_model = 1.0;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    double model = miss_ratio(caps[i], ws, 0.8);
    // Both monotone decreasing.
    EXPECT_LE(simulated[i], prev_sim + 1e-9);
    EXPECT_LT(model, prev_model);
    // Same order of magnitude (within ~10x) over the sweep.
    if (simulated[i] > 0.005) {
      EXPECT_LT(model / simulated[i], 10.0) << "cap " << caps[i];
      EXPECT_GT(model / simulated[i], 1.0 / 10.0) << "cap " << caps[i];
    }
    prev_sim = simulated[i];
    prev_model = model;
  }
}

TEST(HierarchySim, RejectsBadGeometry) {
  EXPECT_THROW(CacheSim(small_cache(1 * KB, 64)), Error);  // capacity < one set
  EXPECT_THROW(HierarchySim({}), Error);
}

}  // namespace
}  // namespace bvl::arch
