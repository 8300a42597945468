// Trace-driven set-associative cache simulator with true LRU.
//
// Used to cross-validate the analytical miss-ratio curve in cache.hpp:
// tests generate synthetic address traces with a known reuse profile,
// run them through this simulator, and check the analytical curve
// tracks the simulated miss ratios across capacities (monotonicity and
// working-set-capture behaviour).
//
// State is structure-of-arrays (parallel tag / last-use / valid
// vectors) so the batched path streams through contiguous memory, and
// accesses come in two flavours:
//   * access()       — one address at a time. This is the reference
//                      path: the batched variant is pinned exactly
//                      against it by the differential suite
//                      (tests/arch/test_cache_sim_batch.cpp).
//   * access_batch() — a block of addresses with the per-level
//                      constants (line shift, set count) hoisted out
//                      of the loop and a branch-light hit scan.
// Both produce bit-identical state and counters for the same address
// sequence; batching changes the loop shape, not one LRU decision.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/cache.hpp"

namespace bvl::arch {

/// One level of simulated cache; LRU replacement, no prefetching.
class CacheSim {
 public:
  explicit CacheSim(const CacheLevelConfig& cfg);

  /// Returns true on hit; updates LRU state either way. Reference
  /// single-access path.
  bool access(std::uint64_t address);

  /// Feeds `n` addresses through the cache in order; returns the miss
  /// count. When `missed_out` is non-null it receives the addresses
  /// that missed, in access order (caller provides capacity for `n`) —
  /// this is how HierarchySim filters a block level by level.
  /// Equivalent to calling access() per address: same final state,
  /// same counters.
  std::size_t access_batch(const std::uint64_t* addrs, std::size_t n,
                           std::uint64_t* missed_out = nullptr);

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }

  int associativity() const { return assoc_; }

 private:
  int line_bytes_;
  int line_shift_;  ///< log2(line_bytes_), hoisted for the batch loop
  int assoc_;
  int num_sets_;
  std::uint64_t clock_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
  // Structure-of-arrays way state, row-major by set: index
  // set * assoc_ + way. Parallel vectors instead of an array-of-Way
  // so the batch scan touches one contiguous lane per field.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> last_use_;
  std::vector<std::uint8_t> valid_;
};

/// A full simulated hierarchy: an access walks levels until it hits.
class HierarchySim {
 public:
  explicit HierarchySim(const std::vector<CacheLevelConfig>& levels);

  /// Feeds one address through the hierarchy; returns the deepest
  /// level index probed (levels.size() means it went to memory).
  std::size_t access(std::uint64_t address);

  /// Feeds `n` addresses level by level: the whole block goes through
  /// level 0, its misses (in order) through level 1, and so on.
  /// Because each level sees exactly the subsequence it would see
  /// under per-address walking, in the same order, the final state and
  /// all counters are identical to n access() calls. Returns how many
  /// addresses missed every level (went to memory).
  std::size_t access_batch(const std::uint64_t* addrs, std::size_t n);

  const CacheSim& level(std::size_t i) const { return sims_.at(i); }
  std::size_t depth() const { return sims_.size(); }

  /// Global miss ratio at level i: misses(i) / total accesses fed in.
  double global_miss_ratio(std::size_t i) const;

 private:
  std::vector<CacheSim> sims_;
  std::uint64_t total_accesses_ = 0;
  std::vector<std::uint64_t> scratch_a_, scratch_b_;  ///< batch miss filters
};

}  // namespace bvl::arch
