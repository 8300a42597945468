#include "arch/cache.hpp"

#include <gtest/gtest.h>

#include "arch/server_config.hpp"
#include "util/error.hpp"

namespace bvl::arch {
namespace {

TEST(MissRatio, MonotoneDecreasingInCapacity) {
  double prev = 1.0;
  for (Bytes c : {16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB, 64 * MB}) {
    double m = miss_ratio(c, 32.0 * 1024 * 1024, 0.8);
    EXPECT_LT(m, prev) << "capacity " << c;
    prev = m;
  }
}

TEST(MissRatio, MonotoneIncreasingInWorkingSet) {
  double prev = 0.0;
  for (double ws : {64e3, 256e3, 1e6, 4e6, 16e6, 64e6}) {
    double m = miss_ratio(1 * MB, ws, 0.8);
    EXPECT_GE(m, prev) << "ws " << ws;
    prev = m;
  }
}

TEST(MissRatio, CapturedWorkingSetHitsCompulsoryFloor) {
  // Cache 100x the working set: only compulsory misses remain.
  double m = miss_ratio(64 * MB, 512.0 * 1024, 0.8, /*m_cold=*/0.002);
  EXPECT_LT(m, 0.01);
  EXPECT_GE(m, 0.002);
}

TEST(MissRatio, HigherThetaMissesLess) {
  double lo = miss_ratio(1 * MB, 32e6, 0.4);
  double hi = miss_ratio(1 * MB, 32e6, 1.2);
  EXPECT_GT(lo, hi);
}

TEST(MissRatio, RejectsBadArgs) {
  EXPECT_THROW(miss_ratio(1 * MB, 0.0, 0.8), Error);
  EXPECT_THROW(miss_ratio(1 * MB, 1e6, 0.0), Error);
}

TEST(CacheHierarchy, StallGrowsWithWorkingSet) {
  CacheHierarchy h = xeon_e5_2420().make_hierarchy();
  double small = h.stall_cycles_per_ref(128e3, 0.8, 1.8 * GHz);
  double large = h.stall_cycles_per_ref(64e6, 0.8, 1.8 * GHz);
  EXPECT_GT(large, small * 1.3);
}

TEST(CacheHierarchy, DramComponentScalesWithFrequency) {
  CacheHierarchy h = atom_c2758().make_hierarchy();
  // Large working set -> DRAM-dominated stall. In cycles the stall
  // must grow with frequency (fixed ns latency).
  double at12 = h.stall_cycles_per_ref(256e6, 0.6, 1.2 * GHz);
  double at18 = h.stall_cycles_per_ref(256e6, 0.6, 1.8 * GHz);
  EXPECT_GT(at18, at12);
}

TEST(CacheHierarchy, SharingShrinksEffectiveCapacity) {
  CacheHierarchy h = xeon_e5_2420().make_hierarchy();
  // 6 cores share the L3: per-core share falls, misses rise.
  double alone = h.llc_miss_ratio(8e6, 0.8, 1);
  double crowded = h.llc_miss_ratio(8e6, 0.8, 6);
  EXPECT_GT(crowded, alone);
}

TEST(CacheHierarchy, XeonL3AbsorbsWhatAtomL2Cannot) {
  // The paper's central capacity story: a multi-MB working set fits
  // the Xeon's 15 MB L3 but not the Atom's 1 MB module L2.
  CacheHierarchy xeon = xeon_e5_2420().make_hierarchy();
  CacheHierarchy atom = atom_c2758().make_hierarchy();
  double ws = 3e6;
  EXPECT_LT(xeon.llc_miss_ratio(ws, 0.5, 4), 0.5 * atom.llc_miss_ratio(ws, 0.5, 4));
}

TEST(CacheHierarchy, RejectsEmptyAndZeroLevels) {
  EXPECT_THROW(CacheHierarchy({}, MemoryConfig{}), Error);
  EXPECT_THROW(CacheHierarchy({CacheLevelConfig{.name = "L1", .capacity = 0}}, MemoryConfig{}),
               Error);
}

}  // namespace
}  // namespace bvl::arch
