// CPI-stack core timing model.
//
// Time per instruction decomposes into
//   CPI = CPI_core + CPI_branch + CPI_cache + CPI_dram(f)
// where only CPI_dram carries a frequency term (DRAM latency is fixed
// in nanoseconds, so its cycle cost grows with f). This produces the
// paper's two central performance asymmetries mechanically:
//   * Xeon (4-wide, OoO, deep caches) has lower CPI, and a smaller
//     CPI_core share, so it is LESS sensitive to frequency scaling
//     (Sec. 3.1.1: 31.5% vs 44.6% improvement from 1.2->1.8 GHz).
//   * Atom (2-wide, shallow hierarchy, little MLP) pays most of the
//     memory stall, so its gap to Xeon widens with working set.
#pragma once

#include <cstddef>
#include <string>

#include "arch/cache.hpp"
#include "arch/signature.hpp"

namespace bvl::arch {

struct CoreConfig {
  std::string uarch;              ///< "Sandy Bridge", "Silvermont"
  int issue_width = 2;            ///< sustained decode/issue width
  bool out_of_order = true;
  /// Fraction of the ideal issue rate the scheduler sustains: large
  /// OoO windows (Sandy Bridge) ~0.9, narrow/limited OoO (Silvermont)
  /// ~0.7 on irregular code.
  double scheduling_efficiency = 0.9;
  /// Fraction of exposed memory stall the core overlaps via MLP /
  /// speculation. The paper repeatedly credits Xeon's ability to
  /// "hide memory subsystem misses"; this is that knob.
  double mlp_hide = 0.5;
  int branch_penalty_cycles = 14;

  bool operator==(const CoreConfig&) const = default;
};

/// Per-instruction cycle breakdown at one operating point.
struct CpiBreakdown {
  double core = 0;    ///< issue/dependency-limited cycles
  double branch = 0;  ///< misprediction cycles
  double cache = 0;   ///< on-chip cache-miss service cycles
  double dram = 0;    ///< off-chip stall cycles (scales with f)

  double total() const { return core + branch + cache + dram; }
  double ipc() const { return 1.0 / total(); }
};

class CoreModel {
 public:
  CoreModel(CoreConfig core, CacheHierarchy caches);

  const CoreConfig& config() const { return core_; }
  const CacheHierarchy& caches() const { return caches_; }

  /// CPI stack for a workload signature at frequency `freq` with a
  /// per-task working set of `ws_bytes` and `active_cores` busy cores
  /// competing for shared cache.
  CpiBreakdown cpi(const Signature& sig, double ws_bytes, Hertz freq, int active_cores = 1) const;

  /// One pricing point for the batched CPI evaluation.
  struct CpiPoint {
    const Signature* sig = nullptr;
    double ws_bytes = 0;
    Hertz freq = 0;
    int active_cores = 1;
  };

  /// Evaluates `n` points in one pass, writing `out[i] = cpi(pts[i])`.
  /// The signature-only terms (issue-limited CPI, branch CPI, the
  /// visible-stall fraction) are hoisted and reused while consecutive
  /// points share a `sig` pointer, so sweeps over (ws, freq, cores)
  /// with a fixed signature skip the per-point recomputation. Results
  /// are bit-identical to the scalar cpi() — the differential test in
  /// tests/arch/test_core_model.cpp pins every breakdown field with
  /// exact equality.
  void cpi_batch(const CpiPoint* pts, std::size_t n, CpiBreakdown* out) const;

  /// Instructions per cycle (1 / total CPI).
  double ipc(const Signature& sig, double ws_bytes, Hertz freq, int active_cores = 1) const;

 private:
  CoreConfig core_;
  CacheHierarchy caches_;
};

}  // namespace bvl::arch
