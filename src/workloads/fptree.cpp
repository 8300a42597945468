#include "workloads/fptree.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace bvl::wl {

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Requires every span of `batch` in range, drops the empty ones and
/// returns the number of items left in paths. Each reader of the items
/// checks that each path is strictly ascending as it reads them.
std::uint64_t check_spans(PathBatch& batch) {
  std::uint64_t path_items = 0;
  std::size_t live = 0;
  for (const PathBatch::Span& s : batch.spans) {
    require(s.begin <= s.end && s.end <= batch.items.size(), "PathBatch: span out of range");
    path_items += s.end - s.begin;
    if (s.begin != s.end) batch.spans[live++] = s;
  }
  batch.spans.resize(live);
  return path_items;
}

/// A repeated item would become its own child and count twice toward
/// its support.
void require_ascending(Item before, Item after) {
  require(before < after, "PathBatch: path items must be strictly ascending");
}

/// The distinct items of a batch, each with its support and its bucket
/// of paths, found through an open-addressing table with at least twice
/// as many slots as items: sized by the distinct items, never by the
/// largest id. (A std::unordered_map in its place made mining a shard
/// about a fifth slower.)
class ItemTable {
 public:
  struct Entry {
    Item item = 0;
    std::uint64_t support = 0;
    std::vector<PathBatch::Span> bucket;  ///< the paths whose last unread item this is
  };

  /// The entry of `item`, added with zero support on first sight.
  /// Adding an item invalidates references to other entries.
  Entry& operator[](Item item) {
    for (std::size_t h = slot_of(item);; h = (h + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[h];
      if (slot.entry != kNone) {
        if (slot.item == item) return entries_[slot.entry];
        continue;
      }
      if (2 * (entries_.size() + 1) > slots_.size()) {
        grow();
        return (*this)[item];
      }
      slot = Slot{item, static_cast<std::uint32_t>(entries_.size())};
      return entries_.emplace_back(Entry{item, 0, {}});
    }
  }

  std::vector<Entry>& entries() { return entries_; }

 private:
  struct Slot {
    Item item = 0;
    std::uint32_t entry = kNone;
  };

  /// Fibonacci hashing: the top bits of item * 2^32/phi.
  std::size_t slot_of(Item item) const { return (item * 0x9e3779b9u) >> shift_; }

  void grow() {
    slots_.assign(2 * slots_.size(), Slot{});
    --shift_;
    for (std::uint32_t e = 0; e < entries_.size(); ++e) {
      std::size_t h = slot_of(entries_[e].item);
      while (slots_[h].entry != kNone) h = (h + 1) & (slots_.size() - 1);
      slots_[h] = Slot{entries_[e].item, e};
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(16);
  int shift_ = 28;  ///< 32 - log2(slots_.size())
  std::vector<Entry> entries_;
};

}  // namespace

void PathBatch::end_path(std::size_t begin, std::uint64_t count) {
  require(begin <= items.size() && items.size() <= 0xffffffffu,
          "PathBatch: bad path start or item buffer beyond 32-bit offsets");
  if (begin == items.size()) return;
  spans.push_back(
      Span{static_cast<std::uint32_t>(begin), static_cast<std::uint32_t>(items.size()), count});
}

std::vector<Pattern> mine_patterns(PathBatch& batch, std::uint64_t min_support,
                                   std::uint64_t* visits, std::size_t max_patterns) {
  FpTree cond(min_support);
  std::uint64_t counted = check_spans(batch);  // one visit per path item
  const std::vector<Item>& items = batch.items;
  std::vector<PathBatch::Span>& spans = batch.spans;

  // Level one without the batch's FP-tree: each item's support, and
  // every path in the bucket of its last item.
  ItemTable table;
  for (const PathBatch::Span& s : spans) {
    table[items[s.begin]].support += s.count;
    for (std::uint32_t i = s.begin + 1; i < s.end; ++i) {
      require_ascending(items[i - 1], items[i]);
      table[items[i]].support += s.count;
    }
  }
  for (const PathBatch::Span& s : spans) table[items[s.end - 1]].bucket.push_back(s);
  std::vector<PathBatch::Span>().swap(spans);
  std::vector<ItemTable::Entry>& entries = table.entries();
  std::vector<std::uint32_t> order(entries.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return entries[a].item > entries[b].item; });

  // Items highest first (ascending id encodes descending global support
  // in our transaction encoding). By the time an item comes up, every
  // path holding it has dropped its higher items and sits in its
  // bucket; the part before it is the item's conditional pattern base,
  // and the path moves on to the bucket of its next item down.
  std::vector<Pattern> out;
  std::vector<Item> suffix;
  PathBatch base;
  for (const std::uint32_t e : order) {
    if (max_patterns != 0 && out.size() >= max_patterns) break;
    ItemTable::Entry& x = entries[e];  // every item is in the table: lookups add none
    const bool frequent = x.support >= min_support;
    if (frequent) {
      out.push_back(Pattern{{x.item}, x.support});
      base.clear();
    }
    for (PathBatch::Span s : x.bucket) {
      --s.end;
      if (frequent) {
        const std::size_t begin = base.items.size();
        base.items.insert(base.items.end(), items.begin() + s.begin, items.begin() + s.end);
        base.end_path(begin, s.count);
      }
      if (s.end != s.begin) table[items[s.end - 1]].bucket.push_back(s);
    }
    std::vector<PathBatch::Span>().swap(x.bucket);
    if (!frequent) continue;
    counted += cond.build(base);
    suffix.assign(1, x.item);
    cond.mine_rec(suffix, out, counted, max_patterns);
  }
  if (visits) *visits += counted;
  return out;
}

FpTree::FpTree(std::uint64_t min_support) : min_support_(min_support) {
  require(min_support_ >= 1, "FpTree: min_support must be >= 1");
  pool_.push_back(Node{});  // root: parent kNil, never counted or mined
}

std::uint64_t FpTree::build(PathBatch& batch) {
  const std::uint64_t path_items = check_spans(batch);
  require(path_items < kNil, "FpTree: node limit exceeded");
  const std::vector<Item>& items = batch.items;
  std::vector<PathBatch::Span>& spans = batch.spans;

  // Multikey quicksort (Bentley & Sedgewick) on the item at each
  // depth: a group is a range of spans under one parent node, all
  // longer than `depth`. Three-way partitioning it on a pivot item
  // gathers that item's spans, which become one child whose count is
  // their sum; spans ending at the child drop out, the rest form the
  // child's group one level down, and the spans either side of the
  // pivot stay groups of the same parent. keys[i] caches the item span
  // i has at its group's depth, so partitioning scans one flat array.
  // Each pair of neighbouring items is checked once, where the later
  // one is read.
  struct Group {
    std::uint32_t parent;
    std::uint32_t depth;
    std::size_t lo, hi;
  };
  // A tree has at most one node per path item: the pool never regrows.
  pool_.resize(1);
  pool_.reserve(path_items + 1);
  std::vector<Item> keys(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) keys[i] = items[spans[i].begin];
  auto swap_spans = [&](std::size_t a, std::size_t b) {
    std::swap(spans[a], spans[b]);
    std::swap(keys[a], keys[b]);
  };
  std::uint64_t end_depths = 0;  // summed depth of the nodes where a path ends
  std::vector<Group> todo;
  if (!spans.empty()) todo.push_back(Group{kRoot, 0, 0, spans.size()});
  std::uint64_t rng = 0x9e3779b97f4a7c15u;
  while (!todo.empty()) {
    const Group g = todo.back();
    todo.pop_back();
    if (g.hi - g.lo == 1) {
      // A lone span's remaining items are one chain of nodes.
      const PathBatch::Span& s = spans[g.lo];
      std::uint32_t parent = g.parent;
      for (std::uint32_t k = s.begin + g.depth; k < s.end; ++k) {
        if (k != s.begin + g.depth) require_ascending(items[k - 1], items[k]);
        pool_.push_back(Node{s.count, items[k], parent});
        parent = static_cast<std::uint32_t>(pool_.size() - 1);
      }
      end_depths += s.end - s.begin;
      continue;
    }
    // An xorshift pivot keeps inputs that defeat a median-of-three
    // pivot, such as organ-pipe orders, at expected O(n log n). It
    // changes only node numbering, never the tree.
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const Item pivot = keys[g.lo + static_cast<std::size_t>(rng % (g.hi - g.lo))];
    std::size_t lt = g.lo, i = g.lo, gt = g.hi;
    while (i < gt) {
      if (keys[i] < pivot)
        swap_spans(lt++, i++);
      else if (keys[i] > pivot)
        swap_spans(i, --gt);
      else
        ++i;
    }
    if (g.lo < lt) todo.push_back(Group{g.parent, g.depth, g.lo, lt});
    if (gt < g.hi) todo.push_back(Group{g.parent, g.depth, gt, g.hi});

    std::uint64_t count = 0;
    std::size_t deeper = lt;
    for (std::size_t j = lt; j < gt; ++j) {
      count += spans[j].count;
      if (spans[j].end - spans[j].begin == g.depth + 1) std::swap(spans[deeper++], spans[j]);
    }
    if (deeper != lt) end_depths += g.depth + 1;
    for (std::size_t j = deeper; j < gt; ++j) {
      keys[j] = items[spans[j].begin + g.depth + 1];
      require_ascending(pivot, keys[j]);
    }
    const auto node = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Node{count, pivot, g.parent});
    if (deeper < gt) todo.push_back(Group{node, g.depth + 1, deeper, gt});
  }
  index_items();
  return 2 * end_depths;
}

void FpTree::index_items() {
  // LSD radix sort of the nodes on their item, kBits a pass, up to the
  // highest set bit of any item. It groups every item's nodes and
  // lists the distinct items in ascending order without a map or a
  // table sized by the largest item id. The first pass reads the nodes
  // in pool order, so it needs no input list; only items of kBits or
  // more take further passes through a scratch list.
  constexpr int kBits = 11;
  constexpr Item kMask = (Item{1} << kBits) - 1;
  const auto nodes = static_cast<std::uint32_t>(pool_.size() - 1);
  Item high = 0;
  for (std::uint32_t n = 1; n <= nodes; ++n) high |= pool_[n].item;
  std::array<std::uint32_t, kMask + 1> start{};
  auto exclusive_sum = [&start] {
    std::uint32_t sum = 0;
    for (std::uint32_t& s : start) sum += std::exchange(s, sum);
  };
  by_item_.resize(nodes);
  for (std::uint32_t n = 1; n <= nodes; ++n) ++start[pool_[n].item & kMask];
  exclusive_sum();
  for (std::uint32_t n = 1; n <= nodes; ++n) by_item_[start[pool_[n].item & kMask]++] = n;
  if ((high >> kBits) != 0) {
    std::vector<std::uint32_t> sorted(nodes);
    for (int shift = kBits; shift < 32 && (high >> shift) != 0; shift += kBits) {
      start.fill(0);
      for (std::uint32_t n : by_item_) ++start[(pool_[n].item >> shift) & kMask];
      exclusive_sum();
      for (std::uint32_t n : by_item_) sorted[start[(pool_[n].item >> shift) & kMask]++] = n;
      by_item_.swap(sorted);
    }
  }
  header_.clear();
  for (std::uint32_t k = 0; k < nodes; ++k) {
    const Node& node = pool_[by_item_[k]];
    if (header_.empty() || header_.back().item != node.item)
      header_.push_back(HeaderEntry{node.item, k, 0});
    header_.back().support += node.count;
  }
}

void FpTree::mine_rec(std::vector<Item>& suffix, std::vector<Pattern>& out, std::uint64_t& visits,
                      std::size_t max_patterns) const {
  // One base buffer and one conditional tree per level, rebuilt for
  // every item of this tree.
  PathBatch base;
  FpTree cond(min_support_);
  // Process items least-frequent-first (highest id first: ascending id
  // encodes descending global support in our transaction encoding).
  for (std::size_t r = header_.size(); r-- > 0;) {
    const HeaderEntry& h = header_[r];
    if (h.support < min_support_) continue;
    if (max_patterns != 0 && out.size() >= max_patterns) return;

    Pattern p;
    p.items = suffix;
    p.items.push_back(h.item);
    std::sort(p.items.begin(), p.items.end());
    p.support = h.support;
    out.push_back(std::move(p));

    // Conditional pattern base: the prefix path of every node carrying
    // this item.
    base.clear();
    const std::size_t end = r + 1 < header_.size() ? header_[r + 1].first : by_item_.size();
    for (std::size_t k = h.first; k < end; ++k) {
      const Node& node = pool_[by_item_[k]];
      const std::size_t begin = base.items.size();
      for (std::uint32_t up = node.parent; up != kRoot; up = pool_[up].parent)
        base.items.push_back(pool_[up].item);
      std::reverse(base.items.begin() + static_cast<std::ptrdiff_t>(begin), base.items.end());
      base.end_path(begin, node.count);
    }
    visits += cond.build(base);
    suffix.push_back(h.item);
    cond.mine_rec(suffix, out, visits, max_patterns);
    suffix.pop_back();
  }
}

void append_transaction(std::string_view line, std::vector<Item>& out) {
  const std::size_t begin = out.size();
  const char* p = line.data();
  const char* end = p + line.size();
  while (p < end) {
    while (p < end && *p == ' ') ++p;
    Item v = 0;
    auto [next, ec] = std::from_chars(p, end, v);
    if (ec == std::errc() && next != p) {
      out.push_back(v);
      p = next;
    } else {
      while (p < end && *p != ' ') ++p;  // skip junk token
    }
  }
  auto first = out.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, out.end());
  out.erase(std::unique(first, out.end()), out.end());
}

Transaction parse_transaction(std::string_view line) {
  Transaction t;
  append_transaction(line, t);
  return t;
}

}  // namespace bvl::wl
