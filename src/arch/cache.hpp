// Cache hierarchy geometry and the analytical miss-ratio model.
//
// The analytical model is a standard power-law miss-ratio curve
// ("40 years of cache-rule-of-thumb"): the fraction of memory
// references that miss a cache of capacity C when the workload touches
// a working set W with locality exponent theta is
//
//     m(C) = m_cold + (1 - m_cold) * (1 + C / (kappa * W))^(-theta)
//
// m is monotone decreasing in C and increasing in W, which is all the
// paper's phenomena need: the Xeon's 15 MB L3 keeps absorbing the
// working set as data size grows while the Atom's 4x1 MB L2 does not
// (Sec. 3.3). A trace-driven set-associative simulator (cache_sim.hpp)
// cross-validates the curve in tests.
#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace bvl::arch {

struct CacheLevelConfig {
  std::string name;        ///< "L1d", "L2", "L3"
  Bytes capacity = 0;      ///< capacity of one cache instance
  int associativity = 8;
  int line_bytes = 64;
  double hit_cycles = 4;   ///< load-to-use latency in core cycles
  /// Number of cores sharing one instance: 1 = private (Xeon L1/L2),
  /// 2 = Atom Silvermont module L2, 6 = Xeon chip-wide L3. Effective
  /// per-core capacity shrinks when that many cores are active.
  int sharer_group = 1;

  bool operator==(const CacheLevelConfig&) const = default;
};

struct MemoryConfig {
  double latency_ns = 75.0;       ///< loaded DRAM access latency
  double bandwidth_gbps = 12.8;   ///< DDR3-1600 single channel ~12.8 GB/s
  Bytes capacity = 8ULL * GB;     ///< both servers use 8 GB (Table 1)

  bool operator==(const MemoryConfig&) const = default;
};

/// Global miss ratio of a cache of `capacity` for working set `ws`
/// with locality exponent `theta`. `m_cold` is the compulsory floor.
double miss_ratio(Bytes capacity, double ws_bytes, double theta, double m_cold = 0.001);

class CacheHierarchy {
 public:
  CacheHierarchy(std::vector<CacheLevelConfig> levels, MemoryConfig mem);

  const std::vector<CacheLevelConfig>& levels() const { return levels_; }
  const MemoryConfig& memory() const { return mem_; }

  /// Average stall cycles per memory reference beyond the L1 hit
  /// (which the pipeline hides), at core frequency `freq`, for a
  /// working set `ws_bytes` per core with `active_cores` running, with
  /// locality `theta`. DRAM latency converts ns -> cycles at `freq`,
  /// so the memory-bound part of the CPI stack does NOT shrink with
  /// frequency — the mechanism behind the paper's observation that
  /// memory-intensive phases gain little from DVFS.
  double stall_cycles_per_ref(double ws_bytes, double theta, Hertz freq,
                              int active_cores = 1) const;

  /// Global miss ratio out of the last cache level (fraction of refs
  /// that reach DRAM).
  double llc_miss_ratio(double ws_bytes, double theta, int active_cores = 1) const;

 private:
  /// Effective capacity of level i as seen by one core when
  /// `active_cores` compete.
  double effective_capacity(std::size_t i, int active_cores) const;

  std::vector<CacheLevelConfig> levels_;
  MemoryConfig mem_;
};

}  // namespace bvl::arch
