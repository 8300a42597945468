// Completeness of the trace-cache key (mr::trace_key): every JobConfig
// field that can change a trace must change the key, and the fields
// that cannot (executor width, the knobs of an inactive fault plan)
// must leave it alone so equal traces share one cache entry.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mapreduce/engine.hpp"
#include "mapreduce/trace_io.hpp"
#include "workloads/wordcount.hpp"

namespace bvl::mr {
namespace {

JobConfig reference() {
  JobConfig cfg;
  cfg.input_size = 8 * MB;
  cfg.block_size = 2 * MB;
  cfg.spill_buffer = 1 * MB;
  cfg.sim_scale = 2.0;
  cfg.exec_threads = 1;
  return cfg;
}

FaultPlan active_plan() {
  FaultPlan plan;
  plan.seed = 7;
  plan.fail_prob = 0.3;
  return plan;
}

std::string text_of(const JobConfig& cfg) {
  wl::WordCountJob job;  // has a combiner, so use_combiner matters
  return to_text(Engine().run(job, cfg), true);
}

TEST(TraceKey, EveryFieldThatChangesTheTraceChangesTheKey) {
  struct Variant {
    std::string field;
    JobConfig cfg;
  };
  std::vector<Variant> v{{"reference", reference()}};
  auto mutate = [&](const std::string& field, auto&& fn) {
    JobConfig cfg = reference();
    fn(cfg);
    v.push_back({field, cfg});
  };
  mutate("input_size", [](JobConfig& c) { c.input_size = 6 * MB; });
  mutate("block_size", [](JobConfig& c) { c.block_size = 4 * MB; });
  mutate("num_reducers", [](JobConfig& c) { c.num_reducers = 3; });
  mutate("spill_buffer", [](JobConfig& c) { c.spill_buffer = 256 * KB; });
  mutate("use_combiner", [](JobConfig& c) { c.use_combiner = false; });
  mutate("compress_map_output", [](JobConfig& c) { c.compress_map_output = true; });
  mutate("compression_ratio", [](JobConfig& c) { c.compression_ratio = 2.0; });
  mutate("sim_scale", [](JobConfig& c) { c.sim_scale = 4.0; });
  mutate("seed", [](JobConfig& c) { c.seed = 777; });
  mutate("fault", [](JobConfig& c) { c.fault = active_plan(); });
  mutate("fault.seed", [](JobConfig& c) {
    c.fault = active_plan();
    c.fault.seed = 8;
  });

  std::vector<std::string> texts, keys;
  for (const auto& x : v) {
    texts.push_back(text_of(x.cfg));
    keys.push_back(trace_key(x.cfg));
  }
  for (std::size_t i = 1; i < v.size(); ++i) {
    // Every mutation really changes the trace, so the check below is
    // never vacuous for it.
    EXPECT_NE(texts[i], texts[0]) << v[i].field << " does not change the trace";
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = i + 1; j < v.size(); ++j) {
      if (texts[i] != texts[j]) {
        EXPECT_NE(keys[i], keys[j]) << v[i].field << " vs " << v[j].field << ": " << keys[i];
      }
    }
  }
}

TEST(TraceKey, ExecutorWidthAndInactivePlanKnobsShareAKey) {
  JobConfig serial = reference();
  JobConfig wide = reference();
  wide.exec_threads = 4;
  EXPECT_EQ(text_of(wide), text_of(serial));
  EXPECT_EQ(trace_key(wide), trace_key(serial));

  // An inactive plan takes the fault-free path whatever its policy.
  JobConfig inactive = reference();
  inactive.fault.max_attempts = 9;
  ASSERT_FALSE(inactive.fault.active());
  EXPECT_EQ(text_of(inactive), text_of(serial));
  EXPECT_EQ(trace_key(inactive), trace_key(serial));
}

}  // namespace
}  // namespace bvl::mr
