// FP-tree and FP-Growth frequent-itemset mining (Han et al. 2000),
// the kernel of the paper's Mahout FP-Growth workload. A standalone,
// fully tested implementation: the MapReduce wrapper (fpgrowth.hpp)
// shards transactions Mahout-PFP-style and runs this miner per shard.
//
// A tree is built in one bulk pass over a PathBatch — every path's
// items in one flat buffer plus {begin, end, count} spans — by a
// multikey quicksort of the spans: three-way partitioning on the item
// at each depth gathers the spans that share a prefix, and each such
// run is one node whose count is the run's summed count. No child
// lookup structure exists; nodes live in one arena vector addressed by
// 32-bit indices, and a radix sort of the nodes by item builds the
// header: one entry per distinct item, so nothing is sized by the
// largest item id. The reducer's shard tree and every conditional
// tree mined from it go through this one builder.
//
// The FP-tree of a multiset of sorted paths is unique (a trie whose
// node counts are sums), so node count, node counts and header
// supports do not depend on the order of the paths. The logical work
// metric the perf model charges is order-free too: build() returns one
// visit per path item, shared prefix or not, and mine() adds one visit
// per prefix-path step. Mining walks the distinct items in descending
// order, and a conditional tree depends only on the multiset of its
// base paths, so the mined pattern sequence is fixed by the input
// multiset as well.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace bvl::wl {

using Item = std::uint32_t;
using Transaction = std::vector<Item>;  ///< items sorted by ascending id = descending support

struct Pattern {
  std::vector<Item> items;
  std::uint64_t support = 0;
};

/// Transactions for FpTree::build: the items of every path sit in one
/// flat buffer, and each span names one path's [begin, end) slice of
/// it and how many times the path occurs.
struct PathBatch {
  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint64_t count = 1;
  };

  std::vector<Item> items;
  std::vector<Span> spans;

  /// Closes the path made of the items appended to `items` since
  /// offset `begin`. An empty path adds no span.
  void end_path(std::size_t begin, std::uint64_t count = 1);
  void clear() {
    items.clear();
    spans.clear();
  }
};

class FpTree {
 public:
  /// `min_support`: absolute occurrence threshold for mining.
  explicit FpTree(std::uint64_t min_support);

  /// Replaces the tree with the one holding every path of `batch`.
  /// Each path must be strictly ascending; a span out of range or a
  /// path that is not throws Error. Reorders and filters
  /// `batch.spans`. Returns the tree nodes visited/created — one per
  /// path item, the compute-unit metric the perf model charges.
  std::uint64_t build(PathBatch& batch);

  /// Mines all frequent patterns (recursive conditional-tree
  /// FP-Growth). `visits` accumulates node visits. `max_patterns`
  /// bounds output (0 = unbounded).
  std::vector<Pattern> mine(std::uint64_t* visits = nullptr,
                            std::size_t max_patterns = 0) const;

  std::size_t node_count() const { return pool_.size(); }
  std::uint64_t min_support() const { return min_support_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kRoot = 0;

  /// 16 bytes, arena-indexed. Mining walks only upward (parent) and
  /// across one item's nodes (header), never down, so nodes keep no
  /// children.
  struct Node {
    std::uint64_t count = 0;
    Item item = 0;
    std::uint32_t parent = kNil;
  };

  /// One per distinct item, in ascending item order: the item's nodes
  /// are by_item_[first, next entry's first), and its support is the
  /// sum of their counts.
  struct HeaderEntry {
    Item item = 0;
    std::uint32_t first = 0;
    std::uint64_t support = 0;
  };

  void index_items();
  void mine_rec(std::vector<Item>& suffix, std::vector<Pattern>& out, std::uint64_t& visits,
                std::size_t max_patterns) const;

  std::uint64_t min_support_;
  std::vector<Node> pool_;             ///< [0] is the root
  std::vector<HeaderEntry> header_;    ///< ascending item: mining iterates it backwards
  std::vector<std::uint32_t> by_item_; ///< every non-root node, grouped by item
};

/// Parses "3 17 42" and appends its items to `out`, sorted ascending
/// with duplicates removed; non-numeric tokens are skipped.
void append_transaction(std::string_view line, std::vector<Item>& out);

/// Parses "3 17 42" into a Transaction; non-numeric tokens skipped.
Transaction parse_transaction(std::string_view line);

}  // namespace bvl::wl
