// End-to-end correctness of the six applications on the real engine:
// WordCount counts exactly, Sort sorts, Grep matches, TeraSort is
// globally ordered across reducers, Naive Bayes trains a usable
// classifier, FP-Growth emits valid frequent itemsets. Also the name
// lookup and the default hash partitioner every job but TeraSort uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string_view>

#include "mapreduce/engine.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "workloads/datagen.hpp"
#include "workloads/fpgrowth.hpp"
#include "workloads/fptree.hpp"
#include "workloads/grep.hpp"
#include "workloads/naive_bayes.hpp"
#include "workloads/registry.hpp"
#include "workloads/sort.hpp"
#include "workloads/terasort.hpp"
#include "workloads/wordcount.hpp"

namespace bvl::wl {
namespace {

mr::JobConfig tiny_config() {
  mr::JobConfig cfg;
  cfg.input_size = 2 * MB;
  cfg.block_size = 1 * MB;
  cfg.spill_buffer = 256 * KB;
  return cfg;
}

std::vector<mr::KV> run_and_collect(mr::JobDefinition& job, const mr::JobConfig& cfg) {
  mr::Engine engine;
  std::vector<mr::KV> out;
  engine.run(job, cfg, [&](const mr::KV& kv) { out.push_back(kv); });
  return out;
}

TEST(WordCountApp, CountsMatchIndependentRecount) {
  // Recount the identical generated corpus by hand and compare.
  WordCountJob job;
  mr::JobConfig cfg = tiny_config();
  auto output = run_and_collect(job, cfg);

  long long total_from_output = 0;
  for (const auto& kv : output) {
    EXPECT_FALSE(kv.key.empty());
    total_from_output += std::stoll(kv.value);
  }
  // Total word count must equal total tokens processed: ~input bytes
  // divided by mean token+space width. Cross-check via a fresh run's
  // counters.
  WordCountJob job2;
  mr::Engine engine;
  mr::JobTrace t = engine.run(job2, cfg);
  EXPECT_DOUBLE_EQ(static_cast<double>(total_from_output), t.map_total().token_ops);
}

TEST(WordCountApp, DistinctKeysBoundedByVocabulary) {
  WordCountJob job;
  auto output = run_and_collect(job, tiny_config());
  EXPECT_LE(output.size(), 500u * 2);  // vocab 500 (x reducer split safety)
  EXPECT_GT(output.size(), 100u);
}

TEST(SortApp, OutputIsSortedWithinEachMapTask) {
  SortJob job;
  mr::JobConfig cfg = tiny_config();
  mr::Engine engine;
  std::vector<std::string> keys;
  engine.run(job, cfg, [&](const mr::KV& kv) { keys.push_back(kv.key); });
  ASSERT_FALSE(keys.empty());
  // Map-only sort: each task's output is sorted; with 2 blocks the
  // stream is two sorted runs. Count descents: at most blocks-1.
  int descents = 0;
  for (std::size_t i = 1; i < keys.size(); ++i)
    if (keys[i] < keys[i - 1]) ++descents;
  EXPECT_LE(descents, 1);
}

TEST(SortApp, PreservesEveryRecord) {
  SortJob job;
  mr::JobConfig cfg = tiny_config();
  mr::Engine engine;
  std::size_t n = 0;
  mr::JobTrace t = engine.run(job, cfg, [&](const mr::KV&) { ++n; });
  EXPECT_EQ(static_cast<double>(n), t.map_total().input_records);
}

TEST(GrepApp, AllOutputKeysContainPattern) {
  GrepJob job("a");
  auto output = run_and_collect(job, tiny_config());
  ASSERT_FALSE(output.empty());
  for (const auto& kv : output) {
    EXPECT_NE(kv.key.find('a'), std::string::npos) << kv.key;
    EXPECT_GT(std::stoll(kv.value), 0);
  }
}

TEST(GrepApp, RarePatternMatchesLess) {
  GrepJob common("a");
  auto out_common = run_and_collect(common, tiny_config());
  GrepJob rare("zzq");
  auto out_rare = run_and_collect(rare, tiny_config());
  EXPECT_GT(out_common.size(), out_rare.size());
}

TEST(TeraSortApp, GloballySortedAcrossReducers) {
  // The total-order partitioner guarantee: reducer r's keys all
  // precede reducer r+1's. The engine emits reduce outputs in
  // partition order, so the whole stream must be sorted.
  TeraSortJob job(4);
  mr::JobConfig cfg = tiny_config();
  mr::Engine engine;
  std::vector<std::string> keys;
  engine.run(job, cfg, [&](const mr::KV& kv) { keys.push_back(kv.key); });
  ASSERT_GT(keys.size(), 100u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(TeraSortApp, PrepareProducesOrderedCutPoints) {
  TeraSortJob job(8);
  mr::WorkCounters c;
  job.prepare(64 * KB, 123, c);
  const auto& cuts = job.cut_points();
  ASSERT_EQ(cuts.size(), 7u);
  EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
  EXPECT_GT(c.compares, 0);  // sampling sort was charged
}

TEST(TeraSortApp, PartitionRespectsCutPoints) {
  TeraSortJob job(4);
  mr::WorkCounters c;
  job.prepare(64 * KB, 123, c);
  // Keys below the first cut go to partition 0; above the last cut to
  // the final partition.
  EXPECT_EQ(job.partition("\x01", 4), 0);
  EXPECT_EQ(job.partition("\x7e\x7e\x7e\x7e", 4), 3);
  // Monotone: partition index non-decreasing in key order.
  int prev = 0;
  for (const auto& cut : job.cut_points()) {
    int p = job.partition(cut, 4);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(NaiveBayesApp, TrainedModelClassifiesHeldOutDocs) {
  NaiveBayesJob job;
  mr::JobConfig cfg = tiny_config();
  NaiveBayesModel model;
  mr::Engine engine;
  engine.run(job, cfg, [&](const mr::KV& kv) { model.add_count(kv.key, std::stoll(kv.value)); });
  ASSERT_EQ(model.num_labels(), 5u);

  // Held-out documents from the same generator family: the classifier
  // must beat chance (20%) comfortably.
  LabeledDocSource held_out(64 * KB, 999);
  mr::Record rec;
  int correct = 0, total = 0;
  while (held_out.next(rec)) {
    auto tab = rec.value.find('\t');
    std::string label(rec.value.substr(0, tab));
    std::vector<std::string> tokens;
    for_each_token(rec.value.substr(tab + 1),
                   [&](std::string_view t) { tokens.emplace_back(t); });
    if (model.classify(tokens) == label) ++correct;
    ++total;
  }
  ASSERT_GT(total, 50);
  EXPECT_GT(static_cast<double>(correct) / total, 0.35);
}

TEST(FpGrowthApp, EmitsValidFrequentItemsets) {
  FpGrowthJob job(4, 10);
  auto output = run_and_collect(job, tiny_config());
  ASSERT_FALSE(output.empty());
  for (const auto& kv : output) {
    // Key format "gN:items...", value = support count.
    EXPECT_EQ(kv.key.front(), 'g');
    EXPECT_GE(std::stoll(kv.value), 2);
    auto colon = kv.key.find(':');
    ASSERT_NE(colon, std::string::npos);
    Transaction items = parse_transaction(kv.key.substr(colon + 1));
    EXPECT_FALSE(items.empty());
  }
}

TEST(Registry, NamesRoundTrip) {
  for (WorkloadId id : all_workloads()) {
    EXPECT_EQ(find_workload(short_name(id)), id);
    EXPECT_EQ(find_workload(long_name(id)), id);
    EXPECT_EQ(make_workload(id)->name(), long_name(id));
  }
  // The examples take their workload from argv through this lookup: a
  // near miss must be rejected, not resolved to some workload.
  for (const char* name : {"NoSuchApp", "", "W", "WCX", " WC", "WC ", "wc", "wordcount"}) {
    EXPECT_EQ(find_workload(name), std::nullopt) << "'" << name << "'";
  }
  EXPECT_EQ(micro_benchmarks().size(), 4u);
  EXPECT_EQ(real_world_apps().size(), 2u);
}

TEST(StableHash, MatchesFnv1aReferenceVectors) {
  // 64-bit FNV-1a: the default partitioner's routing, and so every
  // trace and golden, depends on these exact values.
  EXPECT_EQ(mr::stable_hash(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(mr::stable_hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(mr::stable_hash("foobar"), 0x85944171f73967e8ULL);
}

TEST(DefaultPartitioner, RoutesEveryKeyToAReducerInRange) {
  WordCountJob job;  // keeps JobDefinition's hash partitioner
  for (std::string_view key : {"", "hadoop", "atom", "xeon", "the", "\xff\xfe"}) {
    for (int n : {1, 3, 4, 7}) {
      int p = job.partition(key, n);
      EXPECT_GE(p, 0);
      EXPECT_LT(p, n);
      EXPECT_EQ(static_cast<std::uint64_t>(p),
                mr::stable_hash(key) % static_cast<std::uint64_t>(n));
    }
  }
  EXPECT_THROW(job.partition("x", 0), Error);
}

}  // namespace
}  // namespace bvl::wl
