#include "workloads/datagen.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/string_util.hpp"

namespace bvl::wl {
namespace {

TEST(Vocabulary, DistinctWords) {
  Vocabulary v(1000, 7);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < v.size(); ++i) seen.insert(v.word(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(LineSource, ProducesApproximatelyTargetBytes) {
  TextSource src(10 * KB, 42);
  mr::Record rec;
  Bytes produced = 0;
  while (src.next(rec)) produced += rec.bytes();
  EXPECT_GE(produced, 10 * KB);
  EXPECT_LT(produced, 11 * KB);  // overshoot bounded by one line
}

TEST(LineSource, DeterministicPerSeed) {
  TextSource a(4 * KB, 42), b(4 * KB, 42), c(4 * KB, 43);
  mr::Record ra, rb, rc;
  a.next(ra);
  b.next(rb);
  c.next(rc);
  EXPECT_EQ(ra.value, rb.value);
  EXPECT_NE(ra.value, rc.value);
}

TEST(TextSource, LinesHaveRequestedWordCount) {
  TextSource src(4 * KB, 1, 500, 1.05, 10);
  mr::Record rec;
  ASSERT_TRUE(src.next(rec));
  int words = 0;
  for_each_token(rec.value, [&](std::string_view) { ++words; });
  EXPECT_EQ(words, 10);
}

TEST(TextSource, WordFrequencyIsSkewed) {
  TextSource src(64 * KB, 5);
  std::map<std::string, int> counts;
  mr::Record rec;
  while (src.next(rec))
    for_each_token(rec.value, [&](std::string_view t) { ++counts[std::string(t)]; });
  int max_count = 0;
  for (const auto& [w, n] : counts) max_count = std::max(max_count, n);
  double total = 0;
  for (const auto& [w, n] : counts) total += n;
  // Zipf head: the most frequent word carries a large share.
  EXPECT_GT(max_count / total, 0.05);
}

TEST(TableSource, RowFormat) {
  TableSource src(4 * KB, 9, 12, 80);
  mr::Record rec;
  ASSERT_TRUE(src.next(rec));
  auto tab = rec.value.find('\t');
  ASSERT_NE(tab, std::string::npos);
  EXPECT_EQ(tab, 12u);
  EXPECT_EQ(rec.value.size(), 12u + 1 + 80);
}

TEST(TeraGenSource, TeraGenRecordLayout) {
  TeraGenSource src(4 * KB, 3);
  mr::Record rec;
  ASSERT_TRUE(src.next(rec));
  auto tab = rec.value.find('\t');
  EXPECT_EQ(tab, static_cast<std::size_t>(TeraGenSource::kKeyLen));
  EXPECT_EQ(rec.value.size(),
            static_cast<std::size_t>(TeraGenSource::kKeyLen + 1 + TeraGenSource::kPayloadLen));
}

TEST(LabeledDocSource, LabelPrefixAndBody) {
  LabeledDocSource src(8 * KB, 11, 5);
  mr::Record rec;
  int docs = 0;
  std::set<std::string> labels;
  while (src.next(rec)) {
    auto tab = rec.value.find('\t');
    ASSERT_NE(tab, std::string::npos);
    std::string label(rec.value.substr(0, tab));
    EXPECT_EQ(label.rfind("class", 0), 0u);
    labels.insert(label);
    ++docs;
  }
  EXPECT_GT(docs, 10);
  EXPECT_GT(labels.size(), 2u);  // multiple classes appear
}

TEST(TransactionSource, BasketsSortedAndDeduplicated) {
  TransactionSource src(8 * KB, 13);
  mr::Record rec;
  while (src.next(rec)) {
    long long prev = -1;
    for_each_token(rec.value, [&](std::string_view tok) {
      long long v = std::stoll(std::string(tok));
      EXPECT_GT(v, prev);  // strictly ascending = sorted + unique
      prev = v;
    });
  }
}

}  // namespace
}  // namespace bvl::wl
