#include "workloads/datagen.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "util/error.hpp"

namespace bvl::wl {

namespace {
constexpr char kConsonants[] = "bcdfghjklmnpqrstvwz";
constexpr char kVowels[] = "aeiou";

std::string pseudo_word(Pcg32& rng) {
  int syllables = static_cast<int>(rng.uniform(1, 4));
  std::string w;
  for (int s = 0; s < syllables; ++s) {
    w += kConsonants[rng.uniform(0, sizeof kConsonants - 2)];
    w += kVowels[rng.uniform(0, sizeof kVowels - 2)];
  }
  return w;
}

/// Appends the decimal digits of `v` without allocating.
void append_number(std::string& out, std::uint64_t v) {
  char buf[20];
  int n = 0;
  do {
    buf[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) out += buf[--n];
}

std::shared_ptr<const Vocabulary> shared_vocabulary(std::size_t size, std::uint64_t seed) {
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::uint64_t>, std::shared_ptr<const Vocabulary>> built;
  std::lock_guard<std::mutex> lock(mu);
  auto& table = built[{size, seed}];
  if (!table) table = std::make_shared<const Vocabulary>(size, seed);
  return table;
}

std::shared_ptr<const ZipfSampler> shared_zipf(std::size_t n, double s) {
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::uint64_t>, std::shared_ptr<const ZipfSampler>> built;
  std::lock_guard<std::mutex> lock(mu);
  auto& table = built[{n, std::bit_cast<std::uint64_t>(s)}];
  if (!table) table = std::make_shared<const ZipfSampler>(n, s);
  return table;
}
}  // namespace

Vocabulary::Vocabulary(std::size_t size, std::uint64_t seed) {
  require(size > 0, "Vocabulary: empty");
  Pcg32 rng(seed, 0x1234);
  std::set<std::string> seen;
  words_.reserve(size);
  while (words_.size() < size) {
    std::string w = pseudo_word(rng);
    // Disambiguate collisions with a numeric suffix so the vocabulary
    // has exactly `size` distinct words.
    if (!seen.insert(w).second) {
      w += std::to_string(words_.size());
      seen.insert(w);
    }
    words_.push_back(std::move(w));
  }
}

LineSource::LineSource(Bytes target_bytes, std::uint64_t seed)
    : target_(target_bytes), rng_(seed, 0xbeef) {
  require(target_ > 0, "LineSource: zero target");
}

bool LineSource::next(mr::Record& rec) {
  if (produced_ >= target_) return false;
  key_buf_.clear();
  append_number(key_buf_, line_no_++);
  line_buf_.clear();
  make_line(rng_, line_buf_);
  rec.key = key_buf_;
  rec.value = line_buf_;
  produced_ += rec.bytes();
  return true;
}

TextSource::TextSource(Bytes target_bytes, std::uint64_t seed, std::size_t vocab, double zipf_s,
                       int words_per_line)
    : LineSource(target_bytes, seed),
      vocab_(shared_vocabulary(vocab, /*seed=*/7)),
      zipf_(shared_zipf(vocab, zipf_s)),
      words_per_line_(words_per_line) {
  require(words_per_line_ > 0, "TextSource: zero words per line");
}

void TextSource::make_line(Pcg32& rng, std::string& line) {
  for (int i = 0; i < words_per_line_; ++i) {
    if (i) line += ' ';
    line += vocab_->word(zipf_->sample(rng));
  }
}

TableSource::TableSource(Bytes target_bytes, std::uint64_t seed, int key_len, int payload_len)
    : LineSource(target_bytes, seed), key_len_(key_len), payload_len_(payload_len) {
  require(key_len_ > 0 && payload_len_ >= 0, "TableSource: bad field lengths");
}

void TableSource::make_line(Pcg32& rng, std::string& line) {
  line.reserve(static_cast<std::size_t>(key_len_ + payload_len_ + 1));
  for (int i = 0; i < key_len_; ++i)
    line += static_cast<char>('a' + rng.uniform(0, 25));
  line += '\t';
  for (int i = 0; i < payload_len_; ++i)
    line += static_cast<char>('A' + rng.uniform(0, 25));
}

TeraGenSource::TeraGenSource(Bytes target_bytes, std::uint64_t seed)
    : LineSource(target_bytes, seed) {}

void TeraGenSource::make_line(Pcg32& rng, std::string& line) {
  line.reserve(kKeyLen + 1 + kPayloadLen);
  for (int i = 0; i < kKeyLen; ++i)
    line += static_cast<char>(' ' + rng.uniform(0, 94));  // printable ASCII
  line += '\t';
  line.append(kPayloadLen, 'X');
}

LabeledDocSource::LabeledDocSource(Bytes target_bytes, std::uint64_t seed, int num_labels,
                                   std::size_t vocab, int words_per_doc)
    : LineSource(target_bytes, seed),
      vocab_(shared_vocabulary(vocab, /*seed=*/7)),
      zipf_(shared_zipf(vocab, 1.05)),
      num_labels_(num_labels),
      words_per_doc_(words_per_doc) {
  require(num_labels_ > 0, "LabeledDocSource: no labels");
}


void LabeledDocSource::make_line(Pcg32& rng, std::string& line) {
  int label = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(num_labels_ - 1)));
  line += "class";
  append_number(line, static_cast<std::uint64_t>(label));
  line += '\t';
  for (int i = 0; i < words_per_doc_; ++i) {
    if (i) line += ' ';
    // Shift the rank by a per-label offset so each class has its own
    // characteristic head words.
    std::size_t rank =
        (zipf_->sample(rng) + static_cast<std::size_t>(label) * 37) % vocab_->size();
    line += vocab_->word(rank);
  }
}

TransactionSource::TransactionSource(Bytes target_bytes, std::uint64_t seed, std::size_t num_items,
                                     double zipf_s, int min_items, int max_items)
    : LineSource(target_bytes, seed),
      zipf_(shared_zipf(num_items, zipf_s)),
      min_items_(min_items),
      max_items_(max_items) {
  require(min_items_ >= 1 && max_items_ >= min_items_, "TransactionSource: bad basket bounds");
  basket_.reserve(static_cast<std::size_t>(max_items_));
}

void TransactionSource::make_line(Pcg32& rng, std::string& line) {
  int n = static_cast<int>(
      rng.uniform(static_cast<std::uint64_t>(min_items_), static_cast<std::uint64_t>(max_items_)));
  basket_.clear();
  int attempts = 0;
  while (static_cast<int>(basket_.size()) < n && attempts < 4 * n) {
    const std::size_t item = zipf_->sample(rng);
    auto at = std::lower_bound(basket_.begin(), basket_.end(), item);
    if (at == basket_.end() || *at != item) basket_.insert(at, item);
    ++attempts;
  }
  bool first = true;
  for (std::size_t item : basket_) {
    if (!first) line += ' ';
    append_number(line, item);
    first = false;
  }
}

}  // namespace bvl::wl
