// Parallel FP-Growth (Mahout-PFP style) on the MapReduce engine: map
// shards each transaction to item groups (emitting the basket prefix
// relevant to each group); each reducer mines its shard's frequent
// patterns with real FP-Growth (fptree.hpp). By far the most compute-heavy
// workload, matching the paper where FP dominates every execution-time
// plot.
#pragma once

#include <string>

#include "mapreduce/api.hpp"

namespace bvl::wl {

class FpGrowthJob final : public mr::JobDefinition {
 public:
  /// `num_groups`: item-group shards (= natural reducer count);
  /// `min_support_per_mille`: support threshold as a fraction of the
  /// shard's transaction count, in 1/1000.
  explicit FpGrowthJob(int num_groups = 4, int min_support_per_mille = 5);

  std::string name() const override { return "FPGrowth"; }
  std::unique_ptr<mr::SplitSource> open_split(std::uint64_t block_id, Bytes exec_bytes,
                                              std::uint64_t seed) const override;
  std::unique_ptr<mr::Mapper> make_mapper() const override;
  std::unique_ptr<mr::Reducer> make_reducer() const override;
  int default_reducers() const override { return num_groups_; }

  int num_groups() const { return num_groups_; }

 private:
  int num_groups_;
  int min_support_per_mille_;
};

}  // namespace bvl::wl
