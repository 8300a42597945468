#include "workloads/fpgrowth.hpp"

#include <algorithm>
#include <charconv>
#include <string>

#include "util/error.hpp"
#include "workloads/datagen.hpp"
#include "workloads/fptree.hpp"

namespace bvl::wl {

namespace {

/// Mahout-PFP group id: items are hashed into groups; each group's
/// reducer sees the basket prefix ending at its item.
int group_of(Item item, int groups) { return static_cast<int>(item % static_cast<Item>(groups)); }

class PfpMapper final : public mr::Mapper {
 public:
  explicit PfpMapper(int groups) : groups_(groups) {
    for (int g = 0; g < groups_; ++g) keys_.emplace_back("g").append(std::to_string(g));
  }

  void map(const mr::Record& rec, mr::Emitter& out, mr::WorkCounters& c) override {
    items_.clear();
    append_transaction(rec.value, items_);
    c.token_ops += static_cast<double>(items_.size());
    if (items_.empty()) return;
    // Render the basket once: every dependent prefix (items up to and
    // including position i) is the leading slice ends_[i] of it.
    line_.clear();
    ends_.clear();
    for (Item item : items_) {
      if (!line_.empty()) line_ += ' ';
      char buf[16];
      line_.append(buf, std::to_chars(buf, buf + sizeof buf, item).ptr);
      ends_.push_back(line_.size());
    }
    // Emit each group's dependent prefix once (dedup groups seen,
    // scanning least-frequent-first as PFP does); groups <= 64.
    std::uint64_t emitted = 0;
    for (std::size_t i = items_.size(); i-- > 0;) {
      const int g = group_of(items_[i], groups_);
      const std::uint64_t bit = std::uint64_t{1} << g;
      if (emitted & bit) continue;
      emitted |= bit;
      out.emit(keys_[static_cast<std::size_t>(g)], std::string_view(line_).substr(0, ends_[i]));
      c.compute_units += static_cast<double>(i + 1);
    }
  }

 private:
  int groups_;
  std::vector<std::string> keys_;  ///< "g<group>", built once
  Transaction items_;
  std::string line_;
  std::vector<std::size_t> ends_;
};

class PfpReducer final : public mr::Reducer {
 public:
  explicit PfpReducer(int min_support_per_mille) : per_mille_(min_support_per_mille) {}

  void reduce(std::string_view key, const std::vector<std::string_view>& values, mr::Emitter& out,
              mr::WorkCounters& c) override {
    std::uint64_t min_support = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(values.size()) * static_cast<std::uint64_t>(per_mille_) /
               1000);
    // Sized exactly up front (a prefix has at most one item per
    // space-separated token), so growth never holds two copies. Mining
    // reads level one straight from it, so it lives until mining ends;
    // no FP-tree of the whole shard is built.
    PathBatch batch;
    std::size_t tokens = 0;
    for (const auto& v : values)
      tokens += 1 + static_cast<std::size_t>(std::count(v.begin(), v.end(), ' '));
    batch.items.reserve(tokens);
    batch.spans.reserve(values.size());
    for (const auto& v : values) {
      const std::size_t begin = batch.items.size();
      append_transaction(v, batch.items);
      batch.end_path(begin);
    }
    // Cap the mined output so pathological shards stay bounded, as
    // Mahout's topKStrings does.
    std::uint64_t visits = 0;
    auto patterns = mine_patterns(batch, min_support, &visits, /*max_patterns=*/256);
    c.compute_units += static_cast<double>(visits);
    std::sort(patterns.begin(), patterns.end(),
              [](const Pattern& a, const Pattern& b) { return a.support > b.support; });
    std::size_t top = std::min<std::size_t>(patterns.size(), 64);
    for (std::size_t i = 0; i < top; ++i) {
      std::string items;
      for (std::size_t j = 0; j < patterns[i].items.size(); ++j) {
        if (j) items += ' ';
        items += std::to_string(patterns[i].items[j]);
      }
      out.emit(std::string(key) + ":" + items, std::to_string(patterns[i].support));
    }
  }

 private:
  int per_mille_;
};

}  // namespace

FpGrowthJob::FpGrowthJob(int num_groups, int min_support_per_mille)
    : num_groups_(num_groups), min_support_per_mille_(min_support_per_mille) {
  require(num_groups_ >= 1 && num_groups_ <= 64, "FpGrowthJob: groups out of [1,64]");
  require(min_support_per_mille_ >= 1 && min_support_per_mille_ <= 1000,
          "FpGrowthJob: support out of [1,1000] per-mille");
}

std::unique_ptr<mr::SplitSource> FpGrowthJob::open_split(std::uint64_t block_id, Bytes exec_bytes,
                                                         std::uint64_t seed) const {
  return std::make_unique<TransactionSource>(exec_bytes, seed ^ block_id);
}

std::unique_ptr<mr::Mapper> FpGrowthJob::make_mapper() const {
  return std::make_unique<PfpMapper>(num_groups_);
}

std::unique_ptr<mr::Reducer> FpGrowthJob::make_reducer() const {
  return std::make_unique<PfpReducer>(min_support_per_mille_);
}

}  // namespace bvl::wl
