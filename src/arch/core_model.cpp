#include "arch/core_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bvl::arch {

CoreModel::CoreModel(CoreConfig core, CacheHierarchy caches)
    : core_(std::move(core)), caches_(std::move(caches)) {
  require(core_.issue_width >= 1 && core_.issue_width <= 8, "CoreModel: issue width out of range");
  require(core_.scheduling_efficiency > 0.0 && core_.scheduling_efficiency <= 1.0,
          "CoreModel: scheduling_efficiency out of (0,1]");
  require(core_.mlp_hide >= 0.0 && core_.mlp_hide < 1.0, "CoreModel: mlp_hide out of [0,1)");
}

namespace {

/// Signature-only CPI terms, computed once per signature and reused
/// across every point of a batched sweep.
struct SigTerms {
  double core = 0;     ///< issue-limited cycles per instruction
  double branch = 0;   ///< misprediction cycles per instruction
  double visible = 0;  ///< stall fraction surviving MLP + prefetch
};

SigTerms signature_terms(const CoreConfig& core, const Signature& sig) {
  SigTerms t;
  // Issue-limited component: the core sustains min(width, workload
  // ILP) micro-ops per cycle, derated by scheduling efficiency. An
  // in-order core additionally loses issue slots to dependency
  // bubbles it cannot reorder around; model that as a further derate
  // that bites harder when the workload's ILP barely covers the
  // width (nothing to reorder -> stalls).
  double sustained = std::min<double>(core.issue_width, sig.ilp) * core.scheduling_efficiency;
  if (!core.out_of_order) {
    // An in-order core loses issue slots to dependency bubbles it
    // cannot reorder around; workloads with ILP slack beyond the
    // width give the compiler/scheduler something to fill them with.
    double slack = std::max(0.0, sig.ilp / static_cast<double>(core.issue_width) - 1.0);
    double inorder_derate = 0.82 + 0.10 * std::min(1.0, slack);
    sustained *= inorder_derate;
  }
  t.core = 1.0 / std::max(0.1, sustained);

  t.branch = sig.branches_per_inst * sig.branch_miss_rate *
             static_cast<double>(core.branch_penalty_cycles);

  // Visible fraction of the stall after MLP overlap and prefetching.
  double prefetch_hide = 0.6 * sig.prefetchability;
  t.visible = (1.0 - core.mlp_hide) * (1.0 - prefetch_hide);
  return t;
}

/// Point-dependent part of the stack: the memory stall at one
/// (working set, frequency, occupancy) operating point.
CpiBreakdown point_cpi(const CacheHierarchy& caches, const Signature& sig, const SigTerms& t,
                       double ws_bytes, Hertz freq, int active_cores) {
  require(ws_bytes > 0.0, "CoreModel::cpi: working set must be positive");
  require(freq > 0.0, "CoreModel::cpi: freq must be positive");
  CpiBreakdown b;
  b.core = t.core;
  b.branch = t.branch;
  // Memory stall: split the hierarchy's per-reference stall into the
  // on-chip (cycle-denominated) and DRAM (ns-denominated) parts.
  double total_stall = caches.stall_cycles_per_ref(ws_bytes, sig.locality_theta, freq,
                                                   active_cores);
  double llc_miss = caches.llc_miss_ratio(ws_bytes, sig.locality_theta, active_cores);
  double dram_stall = llc_miss * caches.memory().latency_ns * 1e-9 * freq;
  double cache_stall = std::max(0.0, total_stall - dram_stall);
  b.cache = sig.mem_refs_per_inst * cache_stall * t.visible;
  b.dram = sig.mem_refs_per_inst * dram_stall * t.visible;
  return b;
}

}  // namespace

CpiBreakdown CoreModel::cpi(const Signature& sig, double ws_bytes, Hertz freq,
                            int active_cores) const {
  validate(sig);
  SigTerms t = signature_terms(core_, sig);
  return point_cpi(caches_, sig, t, ws_bytes, freq, active_cores);
}

void CoreModel::cpi_batch(const CpiPoint* pts, std::size_t n, CpiBreakdown* out) const {
  // Hoist the signature-only terms across runs of points sharing a
  // signature; the per-point math is the same code the scalar cpi()
  // runs, so every field comes out bit-identical.
  const Signature* cur = nullptr;
  SigTerms t;
  for (std::size_t i = 0; i < n; ++i) {
    const CpiPoint& p = pts[i];
    require(p.sig != nullptr, "CoreModel::cpi_batch: null signature");
    if (p.sig != cur) {
      validate(*p.sig);
      t = signature_terms(core_, *p.sig);
      cur = p.sig;
    }
    out[i] = point_cpi(caches_, *p.sig, t, p.ws_bytes, p.freq, p.active_cores);
  }
}

double CoreModel::ipc(const Signature& sig, double ws_bytes, Hertz freq, int active_cores) const {
  return cpi(sig, ws_bytes, freq, active_cores).ipc();
}

}  // namespace bvl::arch
