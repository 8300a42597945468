// Workload registry: name-based construction of the paper's six
// applications and their classification metadata.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mapreduce/api.hpp"

namespace bvl::wl {

enum class WorkloadId { kWordCount, kSort, kGrep, kTeraSort, kNaiveBayes, kFpGrowth };

/// Paper abbreviations: WC, ST, GP, TS, NB, FP.
std::string short_name(WorkloadId id);
std::string long_name(WorkloadId id);

/// All six studied applications, micro-benchmarks first (Table 2).
std::vector<WorkloadId> all_workloads();
std::vector<WorkloadId> micro_benchmarks();   ///< WC, ST, GP, TS
std::vector<WorkloadId> real_world_apps();    ///< NB, FP

/// Constructs a fresh job definition. Throws on unknown name.
std::unique_ptr<mr::JobDefinition> make_workload(WorkloadId id);
std::unique_ptr<mr::JobDefinition> make_workload(const std::string& short_or_long_name);

}  // namespace bvl::wl
