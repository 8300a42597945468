// FP-tree and FP-Growth frequent-itemset mining (Han et al. 2000),
// the kernel of the paper's Mahout FP-Growth workload. A standalone,
// fully tested implementation: the MapReduce wrapper (fpgrowth.hpp)
// shards transactions Mahout-PFP-style and runs this miner per shard.
//
// mine_patterns() mines a PathBatch — every path's items in one flat
// buffer plus {begin, end, count} spans — without building its
// FP-tree. Level one, the batch's own frequent items, needs only each
// item's support, summed in a table sized by the distinct items (never
// by the largest id), and, for each item it mines, the prefix before
// that item in every path holding it. Those prefixes come from one
// bucket of paths per item, keyed by each path's last unread item:
// items are mined highest id first, so a path reaches an item's bucket
// exactly when the item is its last, and moves on to the next bucket
// with that item dropped. Mining stops at the pattern cap, and no
// bucket below the last item mined is ever walked.
//
// Every conditional pattern base is built into an FpTree in one bulk
// pass by a multikey quicksort of its spans: three-way partitioning on
// the item at each depth gathers the spans that share a prefix, and
// each such run is one node whose count is the run's summed count. No
// child lookup structure exists; nodes live in one arena vector
// addressed by 32-bit indices, and a radix sort of the nodes by item
// builds the header: one entry per distinct item, so nothing is sized
// by the largest item id. Deeper levels read their bases from the
// conditional trees, one prefix path per node.
//
// The FP-tree of a multiset of sorted paths is unique (a trie whose
// node counts are sums), so node count, node counts and header
// supports do not depend on the order of the paths, and the
// conditional tree built from level one's prefixes, counted with
// multiplicity, is the trie the batch's own FP-tree would give for
// that item. The logical work metric the perf model charges is
// order-free too: one visit per batch path item, and for each mined
// item twice the summed depth of the nodes of its conditional tree
// where a base path ends, which is what reading each distinct base path
// up the parent tree and inserting it costs. At level one that equals
// twice the summed depth of the item's nodes in the batch's FP-tree,
// so the charge does not depend on whether that tree is built. Mining
// walks the distinct items in descending order, and a conditional tree
// depends only on the multiset of its base paths, so the mined pattern
// sequence is fixed by the input multiset as well.
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

/// Paths to mine: the items of every path sit in one flat buffer, and
/// each span names one path's [begin, end) slice of it and how many
/// times the path occurs.
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

/// Mines every frequent pattern of the paths in `batch` (FP-Growth,
/// level one straight from the batch, conditional FP-trees below it),
/// least frequent item first, each pattern's items ascending. Each path
/// must be strictly ascending; a span out of range or a path that is
/// not throws Error. Empties `batch.spans` and only reads `batch.items`.
/// `visits` accumulates the logical node visits the perf model
/// charges. `max_patterns` bounds the output (0 = unbounded).
std::vector<Pattern> mine_patterns(PathBatch& batch, std::uint64_t min_support,
                                   std::uint64_t* visits = nullptr, std::size_t max_patterns = 0);

/// One conditional FP-tree: the trie of a pattern base's paths, node
/// counts summed over the paths through each node.
class FpTree {
 public:
  /// `min_support`: absolute occurrence threshold for mining.
  explicit FpTree(std::uint64_t min_support);

  /// Replaces the tree with the one holding every path of `batch`.
  /// Each path must be strictly ascending; a span out of range or a
  /// path that is not throws Error and leaves the tree unspecified.
  /// Reorders and filters `batch.spans`. Returns the visits mining
  /// charges for the tree: twice the summed depth of the nodes where a
  /// path ends, i.e. one visit per step up the parent tree to read each
  /// distinct base path and one per item of it inserted here.
  std::uint64_t build(PathBatch& batch);

  std::size_t node_count() const { return pool_.size(); }

 private:
  friend std::vector<Pattern> mine_patterns(PathBatch&, std::uint64_t, std::uint64_t*,
                                            std::size_t);

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
  /// Mines this tree as the conditional tree of `suffix`, appending to
  /// `out` until it holds `max_patterns` (0 = unbounded).
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
