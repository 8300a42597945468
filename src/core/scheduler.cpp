#include "core/scheduler.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bvl::core {

Allocation schedule_by_class(AppClass cls, const Goal& goal) {
  switch (cls) {
    case AppClass::kComputeBound:
      return {0, 8,
              "compute-bound: large number of little cores minimizes operational and "
              "capital cost; fine-tune block size/frequency to reduce the count"};
    case AppClass::kIoBound:
      return {4, 0, "io-bound: small number of big cores; Xeon hides I/O latency"};
    case AppClass::kHybrid:
      if (goal.delay_exponent >= 2 && goal.with_area)
        return {2, 0, "hybrid under ED2AP: few big cores beat many little cores"};
      return {0, 8, "hybrid: large number of little cores unless real-time cost dominates"};
  }
  throw Error("schedule_by_class: unknown class");
}

Allocation schedule_measured(Characterizer& ch, const RunSpec& spec, const Goal& goal) {
  auto sweep = table3_sweep(ch, spec);
  const CoreCountPoint& best = argmin_cost(sweep, goal.delay_exponent, goal.with_area);
  Allocation a;
  if (best.server == arch::xeon_e5_2420().name) {
    a.xeon_cores = best.cores;
  } else {
    a.atom_cores = best.cores;
  }
  a.rationale = "argmin over measured ED^" + std::to_string(goal.delay_exponent) +
                (goal.with_area ? "AP" : "P") + " surface: " + best.server + " x" +
                std::to_string(best.cores);
  return a;
}

Allocation clamp_to_pool(Allocation a, const CorePool& pool) {
  require(pool.xeon_cores >= 0 && pool.atom_cores >= 0, "clamp_to_pool: negative pool");
  if (pool.xeon_cores == 0 && pool.atom_cores == 0) return {0, 0, a.rationale + " (empty pool)"};

  // Fall back to the other side when the preferred side is absent.
  // The pool is nonempty, so the fallback side has >= 1 core — the old
  // max(1, pool_side) fallback could fabricate a core on an exhausted
  // side, or fall straight through on a zero-core request.
  if (a.xeon_cores > 0 && pool.xeon_cores == 0) {
    a = {0, std::min(8, pool.atom_cores),
         a.rationale + " (no Xeon available; fell back to Atom)"};
  } else if (a.atom_cores > 0 && pool.atom_cores == 0) {
    a = {std::min(8, pool.xeon_cores), 0,
         a.rationale + " (no Atom available; fell back to Xeon)"};
  }
  a.xeon_cores = std::min(a.xeon_cores, pool.xeon_cores);
  a.atom_cores = std::min(a.atom_cores, pool.atom_cores);

  // Degenerate request (nothing allocated on either side): place it on
  // the larger pool side rather than returning a zero-core allocation.
  if (a.xeon_cores == 0 && a.atom_cores == 0) {
    if (pool.xeon_cores >= pool.atom_cores) {
      a.xeon_cores = std::min(8, pool.xeon_cores);
    } else {
      a.atom_cores = std::min(8, pool.atom_cores);
    }
    a.rationale += " (empty request; defaulted to larger pool side)";
  }
  return a;
}

std::vector<PlacementDecision> plan_jobs(Characterizer& ch, const std::vector<JobRequest>& jobs,
                                         const CorePool& pool, const Goal& goal) {
  require(pool.xeon_cores >= 0 && pool.atom_cores >= 0, "plan_jobs: negative pool");
  require(pool.xeon_cores + pool.atom_cores > 0, "plan_jobs: empty pool");
  std::vector<PlacementDecision> out;
  out.reserve(jobs.size());

  for (const auto& job : jobs) {
    RunSpec spec;
    spec.workload = job.workload;
    spec.input_size = job.input_size;

    PlacementDecision d;
    d.job = job;
    d.app_class = classify_workload(ch, job.workload);
    d.allocation = clamp_to_pool(schedule_measured(ch, spec, goal), pool);

    // Price the final placement.
    const bool on_xeon = d.allocation.uses_xeon();
    arch::ServerConfig server = on_xeon ? arch::xeon_e5_2420() : arch::atom_c2758();
    spec.mappers = on_xeon ? d.allocation.xeon_cores : d.allocation.atom_cores;
    perf::RunResult placed = ch.run(spec, server);
    CostMetrics m = metrics_for(placed, server.area_mm2);
    d.goal_cost = goal.with_area ? m.edxap(goal.delay_exponent) : m.edxp(goal.delay_exponent);
    d.energy = m.energy;
    d.delay = m.delay;
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace bvl::core
