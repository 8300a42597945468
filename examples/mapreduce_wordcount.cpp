// Using the MapReduce engine directly as a programming framework:
// define a custom job (inverted word-length histogram), run it, and
// stream real output records — no performance model involved. Shows
// the Hadoop-like API surface: SplitSource, Mapper, Reducer, combiner
// and JobConfig knobs.
#include <charconv>
#include <cstdio>
#include <map>

#include "mapreduce/engine.hpp"
#include "util/string_util.hpp"
#include "workloads/datagen.hpp"

using namespace bvl;

namespace {

// Map: text line -> (word length, 1).
class LengthMapper final : public mr::Mapper {
 public:
  void map(const mr::Record& rec, mr::Emitter& out, mr::WorkCounters& c) override {
    for_each_token(rec.value, [&](std::string_view tok) {
      c.token_ops += 1;
      out.emit(std::to_string(tok.size()), "1");
    });
  }
};

// Reduce/combine: sum occurrences.
class CountReducer final : public mr::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values, mr::Emitter& out,
              mr::WorkCounters& c) override {
    long long sum = 0;
    for (std::string_view v : values) {
      long long x = 0;
      std::from_chars(v.data(), v.data() + v.size(), x);
      sum += x;
      c.compute_units += 1;
    }
    out.emit(key, std::to_string(sum));
  }
};

class LengthHistogramJob final : public mr::JobDefinition {
 public:
  std::string name() const override { return "LengthHistogram"; }
  std::unique_ptr<mr::SplitSource> open_split(std::uint64_t block_id, Bytes exec_bytes,
                                              std::uint64_t seed) const override {
    return std::make_unique<wl::TextSource>(exec_bytes, seed ^ block_id);
  }
  std::unique_ptr<mr::Mapper> make_mapper() const override {
    return std::make_unique<LengthMapper>();
  }
  std::unique_ptr<mr::Reducer> make_reducer() const override {
    return std::make_unique<CountReducer>();
  }
  std::unique_ptr<mr::Reducer> make_combiner() const override {
    return std::make_unique<CountReducer>();
  }
  int default_reducers() const override { return 2; }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "mapreduce_wordcount: unexpected argument '%s'\nusage: mapreduce_wordcount\n",
                 argv[1]);
    return 2;
  }
  LengthHistogramJob job;
  mr::JobConfig cfg;
  cfg.input_size = 16 * MB;
  cfg.block_size = 4 * MB;
  cfg.spill_buffer = 1 * MB;

  std::map<long long, long long> histogram;
  mr::Engine engine;
  mr::JobTrace trace = engine.run(job, cfg, [&](const mr::KV& kv) {
    histogram[std::stoll(kv.key)] += std::stoll(kv.value);
  });

  std::printf("== custom MapReduce job: word-length histogram over %zu map tasks ==\n\n",
              trace.num_map_tasks());
  long long total = 0;
  for (const auto& [len, n] : histogram) total += n;
  for (const auto& [len, n] : histogram) {
    int bar = static_cast<int>(60.0 * static_cast<double>(n) / static_cast<double>(total) * 3);
    std::printf("len %2lld  %9lld  %s\n", len, n, std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
  std::printf("\nengine counters: %.0f records in, %.0f emits, %.0f spills, %.1f MB shuffled\n",
              trace.map_total().input_records, trace.map_total().emits,
              trace.map_total().spills, trace.reduce_total().shuffle_bytes / 1e6);
  return 0;
}
