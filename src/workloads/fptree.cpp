#include "workloads/fptree.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <utility>

#include "util/error.hpp"

namespace bvl::wl {

void PathBatch::end_path(std::size_t begin, std::uint64_t count) {
  require(begin <= items.size() && items.size() <= 0xffffffffu,
          "PathBatch: bad path start or item buffer beyond 32-bit offsets");
  if (begin == items.size()) return;
  spans.push_back(
      Span{static_cast<std::uint32_t>(begin), static_cast<std::uint32_t>(items.size()), count});
}

FpTree::FpTree(std::uint64_t min_support) : min_support_(min_support) {
  require(min_support_ >= 1, "FpTree: min_support must be >= 1");
  pool_.push_back(Node{});  // root: parent kNil, never counted or mined
}

std::uint64_t FpTree::build(PathBatch& batch) {
  const std::vector<Item>& items = batch.items;
  std::vector<PathBatch::Span>& spans = batch.spans;
  std::uint64_t visits = 0;
  std::size_t live = 0;
  for (const PathBatch::Span& s : spans) {
    require(s.begin <= s.end && s.end <= items.size(), "FpTree::build: span out of range");
    for (std::size_t i = std::size_t{s.begin} + 1; i < s.end; ++i)
      require(items[i - 1] < items[i], "FpTree::build: path items must be strictly ascending");
    visits += s.end - s.begin;
    if (s.begin != s.end) spans[live++] = s;
  }
  spans.resize(live);

  // Multikey quicksort (Bentley & Sedgewick) on the item at each
  // depth: a group is a range of spans under one parent node, all
  // longer than `depth`. Three-way partitioning it on a pivot item
  // gathers that item's spans, which become one child whose count is
  // their sum; spans ending at the child drop out, the rest form the
  // child's group one level down, and the spans either side of the
  // pivot stay groups of the same parent.
  struct Group {
    std::uint32_t parent;
    std::uint32_t depth;
    std::size_t lo, hi;
  };
  pool_.resize(1);
  std::vector<Group> todo;
  if (live != 0) todo.push_back(Group{kRoot, 0, 0, live});
  std::uint64_t rng = 0x9e3779b97f4a7c15u;
  while (!todo.empty()) {
    const Group g = todo.back();
    todo.pop_back();
    auto key = [&](std::size_t i) { return items[spans[i].begin + g.depth]; };
    // An xorshift pivot keeps inputs that defeat a median-of-three
    // pivot, such as organ-pipe orders, at expected O(n log n). It
    // changes only node numbering, never the tree.
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const Item pivot = key(g.lo + static_cast<std::size_t>(rng % (g.hi - g.lo)));
    std::size_t lt = g.lo, i = g.lo, gt = g.hi;
    while (i < gt) {
      const Item k = key(i);
      if (k < pivot)
        std::swap(spans[lt++], spans[i++]);
      else if (k > pivot)
        std::swap(spans[i], spans[--gt]);
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
    const auto node = static_cast<std::uint32_t>(pool_.size());
    require(node != kNil, "FpTree: node limit exceeded");
    pool_.push_back(Node{count, pivot, g.parent});
    if (deeper < gt) todo.push_back(Group{node, g.depth + 1, deeper, gt});
  }
  index_items();
  return visits;
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

std::vector<Pattern> FpTree::mine(std::uint64_t* visits, std::size_t max_patterns) const {
  std::vector<Pattern> out;
  std::vector<Item> suffix;
  std::uint64_t counted = 0;
  mine_rec(suffix, out, counted, max_patterns);
  if (visits) *visits += counted;
  return out;
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
    // this item, one visit per step up.
    base.clear();
    const std::size_t end = r + 1 < header_.size() ? header_[r + 1].first : by_item_.size();
    for (std::size_t k = h.first; k < end; ++k) {
      const Node& node = pool_[by_item_[k]];
      const std::size_t begin = base.items.size();
      for (std::uint32_t up = node.parent; up != kRoot; up = pool_[up].parent)
        base.items.push_back(pool_[up].item);
      visits += base.items.size() - begin;
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
