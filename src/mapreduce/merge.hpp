// Counting k-way merge over sealed arena runs. Comparator invocations
// are charged to WorkCounters::compares so merge cost scales with run
// count exactly as Hadoop's spill-merge does (n log k).
//
// Counter contract: the k-way merge is a loser tree (Hadoop's own
// merger discipline): selecting each winner costs exactly one duel per
// tournament level — ceil(log2 k) comparator invocations — instead of
// the up-to-2*log2(k) sift-down compares of the binary-heap merge it
// replaced. The golden traces were regenerated once, deliberately,
// when the heap was retired (DESIGN.md §3c records the old→new
// comparator counts). Ties between runs resolve to the lowest run
// index, so the merge is stable in run order — the property the
// differential suite (tests/mapreduce/test_merge.cpp) pins against
// merge_runs_reference.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mapreduce/arena.hpp"
#include "mapreduce/counters.hpp"
#include "mapreduce/kv.hpp"

namespace bvl::mr {

/// Tournament tree of losers over k run cursors. The winner (smallest
/// key, lowest slot index on ties) is available in O(1); advancing it
/// replays one leaf-to-root path — exactly ceil(log2 k) duels, each
/// charged as one comparator invocation. Slots whose cursors are
/// exhausted (and the power-of-two padding slots) lose every duel
/// without a comparator call: there is no key to compare.
///
/// Cursors are (arena, refs) pairs so the same tree serves the
/// materializing merge (ArenaRun) and the streaming reduce-side
/// grouping (RunView) with identical duel sequences — the golden
/// traces rely on the two charging the same `compares` over the same
/// segments.
class LoserTree {
 public:
  struct Slot {
    const KVArena* data = nullptr;
    const std::vector<KVRef>* refs = nullptr;
    std::size_t idx = 0;
  };

  /// `slots` must outlive the tree; empty slots are allowed (they
  /// start exhausted). `compares` receives one tick per duel.
  LoserTree(std::vector<Slot> slots, std::uint64_t* compares);

  bool empty() const { return !valid(winner_); }

  /// Slot index of the current winner (lowest key; lowest slot on a
  /// tie). Only meaningful while !empty().
  std::size_t winner_slot() const { return winner_; }
  const Slot& winner() const { return slots_[winner_]; }
  const KVRef& winner_ref() const { return slots_[winner_].refs->operator[](slots_[winner_].idx); }

  /// Advances the winner's cursor one record (exhausting it when the
  /// run ends) and replays its path: ceil(log2 k) duels.
  void pop_advance();

 private:
  bool valid(std::size_t s) const {
    return s < slots_.size() && slots_[s].idx < slots_[s].refs->size();
  }
  std::size_t duel(std::size_t a, std::size_t b);
  std::size_t init_node(std::size_t node);
  void replay();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> losers_;  ///< [1, m): loser slot of each internal node
  std::size_t m_ = 1;                  ///< leaf count, power of two >= max(1, k)
  std::size_t winner_ = 0;
  std::uint64_t* compares_;
};

/// Merges sorted runs into one sealed run, counting comparator calls
/// on `c.compares`. Runs are consumed; winning payloads are appended
/// to the output arena (reserved up front, so no reallocation). Ties
/// resolve in run order (stable).
ArenaRun merge_runs(std::vector<ArenaRun> runs, WorkCounters& c);

/// Scalar reference merge: repeated linear scan for the smallest head
/// key, lowest run index on ties. O(n*k), no counters — retained
/// solely so the differential suite can assert the loser tree's output
/// is byte-identical and its tie order stable. Not used on any
/// production path.
ArenaRun merge_runs_reference(const std::vector<ArenaRun>& runs);

/// Sorts a run's index in place by key (stable), counting comparator
/// calls. Payload bytes never move.
void counting_sort_run(ArenaRun& run, WorkCounters& c);
void counting_sort_refs(const KVArena& data, std::vector<KVRef>& refs, WorkCounters& c);

/// Total serialized bytes of a run (payload + per-record framing).
double run_bytes(const ArenaRun& run);
double run_bytes(const RunView& run);

/// True when the run is non-decreasing by key.
bool is_sorted_run(const ArenaRun& run);

/// Streaming k-way merge + group iterator over sorted segments: the
/// reduce side's view of the shuffle. Pops records in globally sorted
/// order and batches equal keys into one group per next() call —
/// without materializing the merged run, so reduce values are views
/// straight into the map-output arenas. The cursor loser tree charges
/// `compares` identically to merge_runs over the same segments.
class GroupIterator {
 public:
  /// `segments` must outlive the iterator (their arenas back every
  /// view handed out). Empty segments are skipped.
  GroupIterator(const std::vector<RunView>& segments, WorkCounters& c);

  /// Advances to the next key group. `key` and the views in `values`
  /// point into the segment arenas and stay valid for the lifetime of
  /// the segments (not just the current group). Returns false when
  /// the segments are exhausted. Values within a group arrive in
  /// segment order (the tree's stable tie order).
  bool next(std::string_view& key, std::vector<std::string_view>& values);

  /// True once every segment is drained: the iterator reads no ref
  /// again, so the caller may free the segments' ref indexes (the
  /// arenas must stay).
  bool exhausted() const { return tree_.empty(); }

  ~GroupIterator();

 private:
  // Declared before tree_: the tree's constructor already charges its
  // init duels through the pointer, so the counter must be live first.
  std::uint64_t compares_ = 0;
  LoserTree tree_;
  double* sink_;  ///< c.compares, flushed on destruction
};

}  // namespace bvl::mr
