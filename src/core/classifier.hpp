// Application classifier: compute-bound (C), I/O-bound (I) or hybrid
// (H) — the paper's Section 3.5 taxonomy driving the scheduling
// policy. Classification is derived from a priced run's component
// breakdown, not hand-assigned, so a new workload is classified the
// same way the six studied ones are.
#pragma once

#include <string>

#include "perf/perf_model.hpp"
#include "workloads/registry.hpp"

namespace bvl::core {

class Characterizer;
struct RunSpec;

enum class AppClass { kComputeBound, kIoBound, kHybrid };

std::string to_string(AppClass c);

/// Classifies from the CPU/IO component shares of a priced run.
/// io share > 0.40 -> I/O bound; io share < 0.19 -> compute bound;
/// otherwise hybrid.
AppClass classify(const perf::RunResult& reference_run);

/// Classifies a workload at the canonical reference point (Xeon,
/// 1 GB/node, 512 MB blocks, 1.8 GHz) regardless of the experiment's
/// own data size — classification is a property of the code, and at
/// the reference point the six studied applications land exactly on
/// the paper's taxonomy (WC/NB/FP compute, ST I/O, GP/TS hybrid).
AppClass classify_workload(Characterizer& ch, wl::WorkloadId id);

/// The reference-point spec classify_workload prices.
RunSpec classifier_spec(wl::WorkloadId id);

}  // namespace bvl::core
