#include "workloads/fptree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "util/error.hpp"

namespace bvl::wl {
namespace {

std::uint64_t support_of(const std::vector<Pattern>& ps, std::vector<Item> items) {
  std::sort(items.begin(), items.end());
  for (const auto& p : ps)
    if (p.items == items) return p.support;
  return 0;
}

void add(PathBatch& batch, const Transaction& path, std::uint64_t count = 1) {
  const std::size_t begin = batch.items.size();
  batch.items.insert(batch.items.end(), path.begin(), path.end());
  batch.end_path(begin, count);
}

PathBatch batch_of(const std::vector<Transaction>& paths) {
  PathBatch batch;
  for (const auto& p : paths) add(batch, p);
  return batch;
}

/// Builds `tree` from `paths`, each occurring once; returns the visits.
std::uint64_t build(FpTree& tree, const std::vector<Transaction>& paths) {
  PathBatch batch = batch_of(paths);
  return tree.build(batch);
}

/// Mines `paths`, each occurring once.
std::vector<Pattern> mine(const std::vector<Transaction>& paths, std::uint64_t min_support,
                          std::uint64_t* visits = nullptr, std::size_t max_patterns = 0) {
  PathBatch batch = batch_of(paths);
  return mine_patterns(batch, min_support, visits, max_patterns);
}

/// The one-transaction-at-a-time FP-tree the bulk builder replaced:
/// a std::map of children per node, LIFO header chains, and its visit
/// counting (one per inserted item, one per prefix-path step).
struct ReferenceTree {
  static constexpr std::size_t kNone = ~std::size_t{0};
  struct Node {
    Item item = 0;
    std::size_t parent = kNone;
    std::size_t next_same_item = kNone;
    std::uint64_t count = 0;
    std::map<Item, std::size_t> children;
    bool path_ends = false;  ///< some inserted path ends here
  };
  struct Header {
    std::size_t head = kNone;
    std::uint64_t support = 0;
  };

  explicit ReferenceTree(std::uint64_t min_support) : min_support(min_support) {}

  std::uint64_t min_support;
  std::vector<Node> nodes{Node{}};
  std::map<Item, Header> header;

  std::uint64_t insert(const Transaction& t, std::uint64_t count) {
    std::size_t cur = 0;
    for (Item item : t) {
      auto found = nodes[cur].children.find(item);
      std::size_t child = found == nodes[cur].children.end() ? nodes.size() : found->second;
      if (child == nodes.size()) {
        nodes[cur].children.emplace(item, child);
        Header& h = header[item];
        nodes.push_back(Node{item, cur, h.head, 0, {}});
        h.head = child;
      }
      cur = child;
      nodes[cur].count += count;
      header[item].support += count;
    }
    if (cur != 0) nodes[cur].path_ends = true;
    return t.size();
  }

  /// Twice the summed depth of the nodes where an inserted path ends.
  std::uint64_t twice_end_depths() const {
    std::uint64_t sum = 0;
    for (const Node& n : nodes) {
      if (!n.path_ends) continue;
      for (std::size_t up = n.parent; up != kNone; up = nodes[up].parent) sum += 2;
    }
    return sum;
  }

  void mine(std::vector<Item>& suffix, std::vector<Pattern>& out, std::uint64_t& visits,
            std::size_t max_patterns) const {
    for (auto it = header.rbegin(); it != header.rend(); ++it) {
      if (it->second.support < min_support) continue;
      if (max_patterns != 0 && out.size() >= max_patterns) return;
      Pattern p{suffix, it->second.support};
      p.items.push_back(it->first);
      std::sort(p.items.begin(), p.items.end());
      out.push_back(p);
      ReferenceTree cond(min_support);
      for (std::size_t n = it->second.head; n != kNone; n = nodes[n].next_same_item) {
        Transaction path;
        for (std::size_t up = nodes[n].parent; up != 0; up = nodes[up].parent, ++visits)
          path.push_back(nodes[up].item);
        if (path.empty()) continue;
        std::reverse(path.begin(), path.end());
        visits += cond.insert(path, nodes[n].count);
      }
      suffix.push_back(it->first);
      cond.mine(suffix, out, visits, max_patterns);
      suffix.pop_back();
    }
  }
};

TEST(FpTree, MinesTextbookExample) {
  // Classic Han et al. style dataset.
  auto patterns = mine(
      {{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3}, {2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3}}, 3);

  EXPECT_EQ(support_of(patterns, {1}), 6u);
  EXPECT_EQ(support_of(patterns, {2}), 7u);
  EXPECT_EQ(support_of(patterns, {3}), 6u);
  EXPECT_EQ(support_of(patterns, {1, 2}), 4u);
  EXPECT_EQ(support_of(patterns, {1, 3}), 4u);
  EXPECT_EQ(support_of(patterns, {2, 3}), 4u);
  // {4} and {5} have support 2 < 3: absent.
  EXPECT_EQ(support_of(patterns, {4}), 0u);
  EXPECT_EQ(support_of(patterns, {5}), 0u);
}

TEST(FpTree, AllMinedPatternsMeetMinSupport) {
  std::vector<Transaction> paths;
  for (Item a = 0; a < 8; ++a)
    for (Item b = a + 1; b < 8; ++b) paths.push_back({a, b});
  for (const auto& p : mine(paths, 2)) EXPECT_GE(p.support, 2u);
}

TEST(FpTree, SubsetSupportMonotonicity) {
  // Apriori property: support({a,b}) <= support({a}).
  auto ps = mine({{1, 2, 3}, {1, 2}, {1}}, 1);
  EXPECT_LE(support_of(ps, {1, 2}), support_of(ps, {1}));
  EXPECT_LE(support_of(ps, {1, 2, 3}), support_of(ps, {1, 2}));
  EXPECT_EQ(support_of(ps, {1}), 3u);
  EXPECT_EQ(support_of(ps, {1, 2}), 2u);
  EXPECT_EQ(support_of(ps, {1, 2, 3}), 1u);
}

TEST(FpTree, SharedPrefixesCompress) {
  FpTree tree(1);
  build(tree, {{1, 2, 3}, {1, 2, 4}});
  // root + 1,2 shared + 3,4 leaves = 5 nodes.
  EXPECT_EQ(tree.node_count(), 5u);
}

TEST(FpTree, InsertCountsVisits) {
  // Twice the summed depth of the nodes where a path ends: a path
  // ending where another already did costs nothing more, and a rebuild
  // replaces the tree.
  FpTree tree(1);
  EXPECT_EQ(build(tree, {{1, 2, 3}}), 6u);
  EXPECT_EQ(build(tree, {{1, 2, 3}, {1, 2}, {}}), 10u);
  EXPECT_EQ(tree.node_count(), 4u);
  EXPECT_EQ(build(tree, {{1, 2}, {1, 2}, {1}}), 6u);
  EXPECT_EQ(tree.node_count(), 3u);
}

TEST(FpTree, MaxPatternsCapsOutput) {
  std::vector<Transaction> paths;
  for (Item i = 0; i < 10; ++i) paths.push_back({i});
  auto ps = mine(paths, 1, nullptr, 3);
  ASSERT_EQ(ps.size(), 3u);
  // Least frequent first: the highest ids.
  EXPECT_EQ(ps[0].items, (std::vector<Item>{9}));
  EXPECT_EQ(ps[2].items, (std::vector<Item>{7}));
}

TEST(FpTree, RejectsUnsortedTransaction) {
  FpTree tree(1);
  EXPECT_THROW(build(tree, {{3, 1}}), Error);
  EXPECT_THROW(mine({{3, 1}}, 1), Error);
  EXPECT_THROW(FpTree(0), Error);
  EXPECT_THROW(mine({{1}}, 0), Error);
  PathBatch out_of_range;
  out_of_range.items = {1, 2};
  out_of_range.spans.push_back({1, 3, 1});
  PathBatch copy = out_of_range;
  EXPECT_THROW(tree.build(out_of_range), Error);
  EXPECT_THROW(mine_patterns(copy, 1), Error);
}

TEST(FpTree, RejectsDuplicateItems) {
  // A repeated item would become its own child and count twice toward
  // the item's support.
  FpTree tree(1);
  EXPECT_THROW(build(tree, {{1, 1}}), Error);
  EXPECT_THROW(build(tree, {{2}, {1, 3, 3, 4}}), Error);
  EXPECT_THROW(build(tree, {{1, 2, 2}, {1, 2, 2}}), Error);  // inside a shared prefix
  EXPECT_THROW(mine({{1, 1}}, 1), Error);
  EXPECT_THROW(mine({{2}, {1, 3, 3, 4}}, 1), Error);
  EXPECT_THROW(mine({{1, 2, 2}, {1, 2, 2}}, 1), Error);
}

TEST(FpTree, HugeItemIdsStayCheap) {
  // Item ids reach 2^32 - 1; nothing may be sized by the largest one.
  FpTree tree(1);
  EXPECT_EQ(build(tree, {{7, 4000000000u}, {7}}), 6u);
  EXPECT_EQ(tree.node_count(), 3u);
  std::uint64_t visits = 0;
  auto ps = mine({{7, 4000000000u}, {7}, {0xffffffffu}}, 1, &visits);
  ASSERT_EQ(ps.size(), 4u);
  EXPECT_EQ(ps[0].items, (std::vector<Item>{0xffffffffu}));
  EXPECT_EQ(ps[0].support, 1u);
  EXPECT_EQ(ps[1].items, (std::vector<Item>{4000000000u}));
  EXPECT_EQ(ps[1].support, 1u);
  EXPECT_EQ(ps[2].items, (std::vector<Item>{7, 4000000000u}));
  EXPECT_EQ(ps[2].support, 1u);
  EXPECT_EQ(ps[3].items, (std::vector<Item>{7}));
  EXPECT_EQ(ps[3].support, 2u);
  // One visit per path item, then one step up from 4000000000 and one
  // insert into its conditional tree.
  EXPECT_EQ(visits, 4u + 2u);
}

TEST(FpTree, MatchesOneAtATimeInsertReference) {
  // Random batches, duplicate paths and counts above one included, must
  // give the reference's node count, its visits and its pattern
  // sequence, both through FpTree::build and through mine_patterns,
  // which mines level one from the batch without building its tree.
  // Seed 0 is a batch of empty paths only.
  const std::size_t caps[] = {0, 1, 3, 256};
  int capped_below_frequent = 0;
  for (std::uint64_t seed = 0; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    auto uniform = [&](std::uint64_t lo, std::uint64_t hi) {
      return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    };
    const std::uint64_t min_support = uniform(1, 5);
    const std::size_t max_patterns = caps[uniform(0, 3)];
    ReferenceTree ref(min_support);
    PathBatch batch;
    std::vector<Transaction> paths;
    std::uint64_t ref_visits = 0;
    for (std::uint64_t n = uniform(1, 300); n-- > 0;) {
      Transaction t;
      if (seed == 0) {
        // stays empty
      } else if (!paths.empty() && uniform(0, 3) == 0) {
        t = paths[uniform(0, paths.size() - 1)];
      } else {
        // Skewed toward small ids so prefixes are shared.
        for (std::uint64_t k = uniform(0, 7); k-- > 0;)
          t.push_back(static_cast<Item>(uniform(0, uniform(0, 40))));
        if (uniform(0, 9) == 0) t.push_back(static_cast<Item>(0xffffffffu - uniform(0, 2)));
        std::sort(t.begin(), t.end());
        t.erase(std::unique(t.begin(), t.end()), t.end());
      }
      paths.push_back(t);
      const std::uint64_t count = uniform(1, 3);
      ref_visits += ref.insert(t, count);
      add(batch, t, count);
    }
    PathBatch tree_batch = batch;
    FpTree tree(min_support);
    ASSERT_EQ(tree.build(tree_batch), ref.twice_end_depths()) << "seed " << seed;
    ASSERT_EQ(tree.node_count(), ref.nodes.size()) << "seed " << seed;

    std::vector<Pattern> want;
    std::vector<Item> suffix;
    std::uint64_t want_visits = 0;
    ref.mine(suffix, want, want_visits, max_patterns);
    std::size_t frequent = 0;
    for (const auto& [item, h] : ref.header) frequent += h.support >= min_support;
    if (max_patterns != 0 && frequent > max_patterns) ++capped_below_frequent;

    std::uint64_t got_visits = 0;
    auto got = mine_patterns(batch, min_support, &got_visits, max_patterns);
    EXPECT_EQ(got_visits, ref_visits + want_visits) << "seed " << seed;
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].items, want[i].items) << "seed " << seed << " pattern " << i;
      EXPECT_EQ(got[i].support, want[i].support) << "seed " << seed << " pattern " << i;
    }
  }
  // The cap must bind on some seeds: more frequent items than it lets
  // level one mine.
  EXPECT_GT(capped_below_frequent, 0);
}

TEST(ParseTransaction, SortsDedupsSkipsJunk) {
  Transaction t = parse_transaction("7 3 junk 3 11");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], 3u);
  EXPECT_EQ(t[1], 7u);
  EXPECT_EQ(t[2], 11u);
  EXPECT_TRUE(parse_transaction("").empty());
  // Appending sorts and dedups only the new items.
  Transaction buf{9};
  append_transaction("5 2 5", buf);
  EXPECT_EQ(buf, (Transaction{9, 2, 5}));
}

}  // namespace
}  // namespace bvl::wl
