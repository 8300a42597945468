#include "mapreduce/reduce_task.hpp"

#include <algorithm>

#include "mapreduce/merge.hpp"
#include "util/error.hpp"

namespace bvl::mr {

ReduceTaskResult run_reduce_task(const JobDefinition& def, std::vector<RunView> segments) {
  ReduceTaskResult result;
  WorkCounters& c = result.counters;

  auto reducer = def.make_reducer();
  require(reducer != nullptr, "run_reduce_task: job has no reducer");

  // Shuffle accounting: every segment byte crosses the network and is
  // staged on the reduce side before merging.
  double fetched = 0;
  for (const auto& seg : segments) fetched += run_bytes(seg);
  c.shuffle_bytes += fetched;
  c.merge_read_bytes += fetched;
  c.disk_seeks += static_cast<double>(segments.size());

  struct ArenaEmitter final : Emitter {
    ArenaRun* out;
    double* arena_bytes;
    void emit(std::string_view key, std::string_view value) override {
      *arena_bytes += static_cast<double>(key.size() + value.size());
      out->refs.push_back(out->data.append(key, value));
    }
  } emitter;
  emitter.out = &result.output;
  emitter.arena_bytes = &c.arena_bytes;

  // Stream sorted key groups off the segment cursor heap; values are
  // views into the map-output arenas, the reducer emits into this
  // task's output arena.
  GroupIterator groups(segments, c);
  std::string_view key;
  std::vector<std::string_view> values;
  while (groups.next(key, values)) {
    c.hash_ops += 1;  // grouping advance per distinct key
    // The last group is gathered: free the segments' refs before the
    // reducer runs (a one-key reducer such as PFP's holds its whole
    // shard in `values`, which points into the arenas).
    if (groups.exhausted()) {
      for (RunView& seg : segments) std::vector<KVRef>().swap(seg.refs);
    }
    reducer->reduce(key, values, emitter, c);
  }

  for (const auto& ref : result.output.refs) {
    c.output_records += 1;
    double b = static_cast<double>(ref.bytes());
    c.output_bytes += b;
    c.disk_write_bytes += b;  // HDFS output write
  }
  c.peak_run_bytes = std::max(c.peak_run_bytes, static_cast<double>(result.output.data.size()));
  return result;
}

}  // namespace bvl::mr
