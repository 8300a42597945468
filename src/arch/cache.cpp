#include "arch/cache.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bvl::arch {

double miss_ratio(Bytes capacity, double ws_bytes, double theta, double m_cold) {
  require(theta > 0.0, "miss_ratio: theta must be positive");
  require(ws_bytes > 0.0, "miss_ratio: working set must be positive");
  // Anchored power law: a tiny reference cache (16 KB) misses m0 of
  // references even on cache-unfriendly code (short-term temporal
  // locality always captures the bulk); growing the cache shrinks the
  // miss ratio as (C_ref/(C_ref+C))^theta; and once the cache is
  // comparable to the working set the capture term drives misses to
  // the compulsory floor. Matches the classical sqrt-rule shape while
  // staying monotone in both C and W.
  constexpr double kCRef = 16.0 * 1024;
  constexpr double kM0 = 0.42;
  double c = std::max(1.0, static_cast<double>(capacity));
  double shrink = std::pow(kCRef / (kCRef + c), theta);
  double capture = 1.0 - std::exp(-ws_bytes / (2.0 * c));
  double m = m_cold + kM0 * shrink * capture;
  return std::clamp(m, m_cold, 1.0);
}

CacheHierarchy::CacheHierarchy(std::vector<CacheLevelConfig> levels, MemoryConfig mem)
    : levels_(std::move(levels)), mem_(mem) {
  require(!levels_.empty(), "CacheHierarchy: at least one level required");
  for (const auto& l : levels_) {
    require(l.capacity > 0, "CacheHierarchy: zero-capacity level " + l.name);
    require(l.sharer_group >= 1, "CacheHierarchy: sharer_group must be >= 1");
  }
}

double CacheHierarchy::effective_capacity(std::size_t i, int active_cores) const {
  const auto& l = levels_[i];
  int competing = std::min(active_cores, l.sharer_group);
  return static_cast<double>(l.capacity) / std::max(1, competing);
}

double CacheHierarchy::stall_cycles_per_ref(double ws_bytes, double theta, Hertz freq,
                                            int active_cores) const {
  require(freq > 0.0, "stall_cycles_per_ref: freq must be positive");
  double stall = 0.0;
  // Each reference missing level i pays level i+1's hit latency; refs
  // missing the last level pay DRAM latency (converted to cycles).
  double prev_miss = 1.0;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    double cap = effective_capacity(i, active_cores);
    double m = miss_ratio(static_cast<Bytes>(cap), ws_bytes, theta);
    m = std::min(m, prev_miss);  // inclusion: can't miss less often upstream
    if (i + 1 < levels_.size()) {
      stall += m * levels_[i + 1].hit_cycles;
    } else {
      stall += m * mem_.latency_ns * 1e-9 * freq;
    }
    prev_miss = m;
  }
  return stall;
}

double CacheHierarchy::llc_miss_ratio(double ws_bytes, double theta, int active_cores) const {
  double m = 1.0;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    double cap = effective_capacity(i, active_cores);
    m = std::min(m, miss_ratio(static_cast<Bytes>(cap), ws_bytes, theta));
  }
  return m;
}

}  // namespace bvl::arch
