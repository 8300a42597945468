#include "workloads/registry.hpp"

#include "util/error.hpp"
#include "workloads/fpgrowth.hpp"
#include "workloads/grep.hpp"
#include "workloads/naive_bayes.hpp"
#include "workloads/sort.hpp"
#include "workloads/terasort.hpp"
#include "workloads/wordcount.hpp"

namespace bvl::wl {

std::string short_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kWordCount: return "WC";
    case WorkloadId::kSort: return "ST";
    case WorkloadId::kGrep: return "GP";
    case WorkloadId::kTeraSort: return "TS";
    case WorkloadId::kNaiveBayes: return "NB";
    case WorkloadId::kFpGrowth: return "FP";
  }
  throw Error("short_name: unknown workload");
}

std::string long_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kWordCount: return "WordCount";
    case WorkloadId::kSort: return "Sort";
    case WorkloadId::kGrep: return "Grep";
    case WorkloadId::kTeraSort: return "TeraSort";
    case WorkloadId::kNaiveBayes: return "NaiveBayes";
    case WorkloadId::kFpGrowth: return "FPGrowth";
  }
  throw Error("long_name: unknown workload");
}

std::vector<WorkloadId> all_workloads() {
  return {WorkloadId::kWordCount, WorkloadId::kSort,       WorkloadId::kGrep,
          WorkloadId::kTeraSort,  WorkloadId::kNaiveBayes, WorkloadId::kFpGrowth};
}

std::vector<WorkloadId> micro_benchmarks() {
  return {WorkloadId::kWordCount, WorkloadId::kSort, WorkloadId::kGrep, WorkloadId::kTeraSort};
}

std::vector<WorkloadId> real_world_apps() {
  return {WorkloadId::kNaiveBayes, WorkloadId::kFpGrowth};
}

std::optional<WorkloadId> find_workload(std::string_view name) {
  for (WorkloadId id : all_workloads()) {
    if (name == short_name(id) || name == long_name(id)) return id;
  }
  return std::nullopt;
}

std::unique_ptr<mr::JobDefinition> make_workload(WorkloadId id) {
  switch (id) {
    case WorkloadId::kWordCount: return std::make_unique<WordCountJob>();
    case WorkloadId::kSort: return std::make_unique<SortJob>();
    case WorkloadId::kGrep: return std::make_unique<GrepJob>();
    case WorkloadId::kTeraSort: return std::make_unique<TeraSortJob>();
    case WorkloadId::kNaiveBayes: return std::make_unique<NaiveBayesJob>();
    case WorkloadId::kFpGrowth: return std::make_unique<FpGrowthJob>();
  }
  throw Error("make_workload: unknown workload");
}

}  // namespace bvl::wl
