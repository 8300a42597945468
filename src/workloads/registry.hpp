// Workload registry: name-based construction of the paper's six
// applications and their classification metadata.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
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

/// The workload whose short or long name is `name`; nullopt when none.
std::optional<WorkloadId> find_workload(std::string_view name);

/// Constructs a fresh job definition.
std::unique_ptr<mr::JobDefinition> make_workload(WorkloadId id);

}  // namespace bvl::wl
