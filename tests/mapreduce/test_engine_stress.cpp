// Concurrency stress/property test (slow tier): thread widths x sim
// scales for WordCount and TeraSort. At every point the shuffle
// conserves the emitted volume, the trace records the requested width,
// and the trace matches the serial baseline bit-for-bit (canonical
// serialization, mapreduce/trace_io.hpp).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/engine.hpp"
#include "mapreduce/trace_io.hpp"
#include "workloads/registry.hpp"

namespace bvl::mr {
namespace {

TEST(EngineStress, StressWidthsAndScalesHoldInvariants) {
  Engine e;
  const std::vector<int> widths = {1, 2, 8, 16};
  const std::vector<double> scales = {1.0, 64.0};

  for (auto id : {wl::WorkloadId::kWordCount, wl::WorkloadId::kTeraSort}) {
    for (double scale : scales) {
      JobConfig cfg;
      cfg.input_size = 16 * MB;
      cfg.block_size = 2 * MB;  // 8 map tasks
      cfg.spill_buffer = 1 * MB;
      cfg.sim_scale = scale;
      cfg.use_combiner = false;  // byte-exact conservation through the shuffle

      std::string baseline;
      for (int threads : widths) {
        SCOPED_TRACE(wl::long_name(id) + " threads=" + std::to_string(threads) +
                     " scale=" + std::to_string(scale));
        auto def = wl::make_workload(id);
        cfg.exec_threads = threads;
        JobTrace t = e.run(*def, cfg);

        // Record conservation: every emitted map-output byte arrives at
        // exactly one reducer (counters are rescaled identically on
        // both sides, so the identity survives sim_scale).
        double emitted = t.map_total().emit_bytes;
        double shuffled = t.reduce_total().shuffle_bytes;
        EXPECT_NEAR(shuffled, emitted, 1e-6 * emitted);

        ASSERT_EQ(t.num_map_tasks(), 8u);
        EXPECT_EQ(t.exec_threads_used, threads);

        std::string text = to_text(t);
        if (threads == widths.front()) {
          baseline = text;
        } else {
          EXPECT_EQ(first_divergence(baseline, text), "");
        }
      }
    }
  }
}

}  // namespace
}  // namespace bvl::mr
