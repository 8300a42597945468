// Deterministic input-data generators.
//
// The paper's inputs: text corpora (WordCount, Grep), tabular rows
// (Sort), TeraGen output (TeraSort), labeled documents (Naive Bayes /
// Mahout), and transaction baskets (FP-Growth / Mahout). Each
// generator produces the same byte stream for the same (seed, split)
// pair, so every experiment is exactly reproducible. Word frequencies
// are Zipf-distributed — the property that makes WordCount's combiner
// effective and keeps Grep's match rate low. The vocabulary and Zipf
// tables depend only on their parameters, so each is built once per
// parameter set and shared read-only by every split.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mapreduce/api.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bvl::wl {

/// Shared synthetic vocabulary: deterministic pseudo-words, index =
/// Zipf rank (0 is the most frequent word).
class Vocabulary {
 public:
  Vocabulary(std::size_t size, std::uint64_t seed);

  const std::string& word(std::size_t rank) const { return words_.at(rank); }
  std::size_t size() const { return words_.size(); }

 private:
  std::vector<std::string> words_;
};

/// Base for generated split sources: subclasses produce one line per
/// next() until the byte target is met. The Record handed out views
/// this source's reusable line buffers (valid until the following
/// next() call), so steady-state record reading performs no heap
/// allocations.
class LineSource : public mr::SplitSource {
 public:
  LineSource(Bytes target_bytes, std::uint64_t seed);

  bool next(mr::Record& rec) final;

 protected:
  /// Appends the next line's bytes to `line` (already cleared).
  virtual void make_line(Pcg32& rng, std::string& line) = 0;

 private:
  Bytes target_;
  Bytes produced_ = 0;
  std::uint64_t line_no_ = 0;
  Pcg32 rng_;
  std::string key_buf_;
  std::string line_buf_;
};

/// Zipf text: lines of `words_per_line` words drawn from a shared
/// vocabulary.
class TextSource final : public LineSource {
 public:
  TextSource(Bytes target_bytes, std::uint64_t seed, std::size_t vocab = 500,
             double zipf_s = 1.05, int words_per_line = 10);

 protected:
  void make_line(Pcg32& rng, std::string& line) override;

 private:
  std::shared_ptr<const Vocabulary> vocab_;
  std::shared_ptr<const ZipfSampler> zipf_;
  int words_per_line_;
};

/// Tabular rows "key\tpayload" with uniform random keys (Sort input).
class TableSource final : public LineSource {
 public:
  TableSource(Bytes target_bytes, std::uint64_t seed, int key_len = 12, int payload_len = 80);

 protected:
  void make_line(Pcg32& rng, std::string& line) override;

 private:
  int key_len_;
  int payload_len_;
};

/// TeraGen-style rows: 10-byte printable key + fixed filler payload.
class TeraGenSource final : public LineSource {
 public:
  TeraGenSource(Bytes target_bytes, std::uint64_t seed);
  static constexpr int kKeyLen = 10;
  static constexpr int kPayloadLen = 88;

 protected:
  void make_line(Pcg32& rng, std::string& line) override;
};

/// Labeled documents "label\tword word ..." for Naive Bayes. Word
/// distribution is shifted per label so classes are separable.
class LabeledDocSource final : public LineSource {
 public:
  LabeledDocSource(Bytes target_bytes, std::uint64_t seed, int num_labels = 5,
                   std::size_t vocab = 500, int words_per_doc = 14);

 protected:
  void make_line(Pcg32& rng, std::string& line) override;

 private:
  std::shared_ptr<const Vocabulary> vocab_;
  std::shared_ptr<const ZipfSampler> zipf_;
  int num_labels_;
  int words_per_doc_;
};

/// Market-basket transactions: space-separated item ids, each basket
/// sorted by global frequency rank (ascending id = descending
/// support), as FP-Growth expects. A basket is drawn into one sorted
/// buffer of at most `max_items` ids, reused for every line.
class TransactionSource final : public LineSource {
 public:
  TransactionSource(Bytes target_bytes, std::uint64_t seed, std::size_t num_items = 1000,
                    double zipf_s = 1.1, int min_items = 4, int max_items = 14);

 protected:
  void make_line(Pcg32& rng, std::string& line) override;

 private:
  std::shared_ptr<const ZipfSampler> zipf_;
  int min_items_;
  int max_items_;
  std::vector<std::size_t> basket_;  ///< ascending = descending support
};

}  // namespace bvl::wl
