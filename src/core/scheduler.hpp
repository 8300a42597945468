// Heterogeneity-aware scheduler (Sec. 3.5).
//
// Two layers:
//  * schedule_by_class: the paper's pseudo-code verbatim — map an
//    application class (C/I/H) and cost goal to a big/little core
//    allocation.
//  * schedule_measured: the data-driven version — evaluate the actual
//    ED^xP / ED^xAP surface over both servers and all core counts and
//    return the argmin, which the tests check agrees with the
//    pseudo-code on the six studied applications.
// plan_jobs runs a whole job mix through the policy against a finite
// heterogeneous core pool (the case-study harness).
#pragma once

#include <string>
#include <vector>

#include "core/characterizer.hpp"
#include "core/classifier.hpp"
#include "core/cost_model.hpp"

namespace bvl::core {

/// Cost goal: x is the delay exponent; with_area selects ED^xAP.
struct Goal {
  int delay_exponent = 1;
  bool with_area = false;

  static Goal edp() { return {1, false}; }
  static Goal ed2p() { return {2, false}; }
  static Goal edap() { return {1, true}; }
  static Goal ed2ap() { return {2, true}; }
};

struct Allocation {
  int xeon_cores = 0;
  int atom_cores = 0;
  std::string rationale;

  bool uses_xeon() const { return xeon_cores > 0; }
};

/// The paper's pseudo-code:
///   C -> 8 Atom cores (fine-tune parameters to shrink the count)
///   I -> 4 Xeon cores
///   H -> 2 Xeon cores when the goal is ED2AP, else 8 Atom cores
Allocation schedule_by_class(AppClass cls, const Goal& goal);

/// Data-driven policy: sweeps both servers' core counts for `spec`
/// and allocates the argmin of the goal metric. The spec's FaultPlan
/// is honored, so a degraded spec yields a straggler-aware decision.
/// The surface is the closed form, which keeps the six studied apps'
/// decisions pinned.
Allocation schedule_measured(Characterizer& ch, const RunSpec& spec, const Goal& goal);

/// Available heterogeneous pool (X Xeon + Y Atom cores).
struct CorePool {
  int xeon_cores = 8;
  int atom_cores = 8;
};

/// Clamps `a` to the pool's per-side capacity, falling back to the
/// other side when the preferred side is absent. Guarantees a nonzero
/// allocation whenever the pool has any cores (in particular a
/// degenerate zero-core request on a pool with both sides nonzero is
/// placed on the larger side, never returned empty); an empty pool
/// yields an empty allocation.
Allocation clamp_to_pool(Allocation a, const CorePool& pool);

/// One job of a mix to be placed on a finite pool.
struct JobRequest {
  wl::WorkloadId workload;
  Bytes input_size = 10 * GB;
};

struct PlacementDecision {
  JobRequest job;
  AppClass app_class = AppClass::kHybrid;
  Allocation allocation;
  double goal_cost = 0;   ///< achieved metric value
  Joules energy = 0;
  Seconds delay = 0;
};

/// Places each job via schedule_measured, clamped to the pool
/// (clamp_to_pool). Throws on an empty pool. Returns per-job
/// decisions; jobs run one at a time (batch model).
std::vector<PlacementDecision> plan_jobs(Characterizer& ch, const std::vector<JobRequest>& jobs,
                                         const CorePool& pool, const Goal& goal);

}  // namespace bvl::core
