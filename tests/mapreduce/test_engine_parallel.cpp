// Determinism-under-threads suite: the parallel task executor must be
// invisible in the engine's output. A JobTrace produced at any
// exec_threads width has to be bit-identical to the serial one —
// counters, task order, sink output, saturation flags — because the
// whole perf/energy overlay (and thus every figure) prices traces.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/engine.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"

namespace bvl::mr {
namespace {

JobConfig parallel_config() {
  JobConfig cfg;
  cfg.input_size = 8 * MB;
  cfg.block_size = 1 * MB;  // 8 map tasks
  cfg.spill_buffer = 512 * KB;
  cfg.sim_scale = 1.0;
  return cfg;
}

void expect_counters_eq(const WorkCounters& a, const WorkCounters& b, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_DOUBLE_EQ(a.input_records, b.input_records);
  EXPECT_DOUBLE_EQ(a.input_bytes, b.input_bytes);
  EXPECT_DOUBLE_EQ(a.output_records, b.output_records);
  EXPECT_DOUBLE_EQ(a.output_bytes, b.output_bytes);
  EXPECT_DOUBLE_EQ(a.emits, b.emits);
  EXPECT_DOUBLE_EQ(a.emit_bytes, b.emit_bytes);
  EXPECT_DOUBLE_EQ(a.compares, b.compares);
  EXPECT_DOUBLE_EQ(a.hash_ops, b.hash_ops);
  EXPECT_DOUBLE_EQ(a.token_ops, b.token_ops);
  EXPECT_DOUBLE_EQ(a.compute_units, b.compute_units);
  EXPECT_DOUBLE_EQ(a.spills, b.spills);
  EXPECT_DOUBLE_EQ(a.spill_bytes, b.spill_bytes);
  EXPECT_DOUBLE_EQ(a.merge_read_bytes, b.merge_read_bytes);
  EXPECT_DOUBLE_EQ(a.disk_read_bytes, b.disk_read_bytes);
  EXPECT_DOUBLE_EQ(a.disk_write_bytes, b.disk_write_bytes);
  EXPECT_DOUBLE_EQ(a.disk_seeks, b.disk_seeks);
  EXPECT_DOUBLE_EQ(a.shuffle_bytes, b.shuffle_bytes);
}

/// Full bitwise trace comparison, excluding the informational
/// exec_threads_used field (the one thing that legitimately differs).
void expect_trace_eq(const JobTrace& a, const JobTrace& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.combiner_saturated, b.combiner_saturated);
  ASSERT_EQ(a.map_tasks.size(), b.map_tasks.size());
  ASSERT_EQ(a.reduce_tasks.size(), b.reduce_tasks.size());
  for (std::size_t i = 0; i < a.map_tasks.size(); ++i) {
    const std::string what = "map task " + std::to_string(i);
    EXPECT_EQ(a.map_tasks[i].logical_bytes, b.map_tasks[i].logical_bytes);
    EXPECT_EQ(a.map_tasks[i].attempts, b.map_tasks[i].attempts) << what;
    EXPECT_EQ(a.map_tasks[i].speculated, b.map_tasks[i].speculated) << what;
    EXPECT_DOUBLE_EQ(a.map_tasks[i].backoff_s, b.map_tasks[i].backoff_s) << what;
    EXPECT_DOUBLE_EQ(a.map_tasks[i].time_factor, b.map_tasks[i].time_factor) << what;
    expect_counters_eq(a.map_tasks[i].counters, b.map_tasks[i].counters, what);
    expect_counters_eq(a.map_tasks[i].wasted, b.map_tasks[i].wasted, what + " wasted");
  }
  for (std::size_t i = 0; i < a.reduce_tasks.size(); ++i) {
    const std::string what = "reduce task " + std::to_string(i);
    EXPECT_EQ(a.reduce_tasks[i].logical_bytes, b.reduce_tasks[i].logical_bytes);
    EXPECT_EQ(a.reduce_tasks[i].attempts, b.reduce_tasks[i].attempts) << what;
    EXPECT_EQ(a.reduce_tasks[i].speculated, b.reduce_tasks[i].speculated) << what;
    EXPECT_DOUBLE_EQ(a.reduce_tasks[i].backoff_s, b.reduce_tasks[i].backoff_s) << what;
    EXPECT_DOUBLE_EQ(a.reduce_tasks[i].time_factor, b.reduce_tasks[i].time_factor) << what;
    expect_counters_eq(a.reduce_tasks[i].counters, b.reduce_tasks[i].counters, what);
    expect_counters_eq(a.reduce_tasks[i].wasted, b.reduce_tasks[i].wasted, what + " wasted");
  }
  expect_counters_eq(a.setup, b.setup, "setup");
  expect_counters_eq(a.cleanup, b.cleanup, "cleanup");
}

TEST(EngineParallel, TraceBitIdenticalToSerialForEveryWorkload) {
  Engine e;
  for (auto id : wl::all_workloads()) {
    SCOPED_TRACE(wl::long_name(id));
    JobConfig cfg = parallel_config();
    // Real-world apps execute heavier per-byte work; shrink their
    // executed volume so the suite stays fast.
    if (id == wl::WorkloadId::kNaiveBayes || id == wl::WorkloadId::kFpGrowth) cfg.sim_scale = 4.0;

    auto serial_def = wl::make_workload(id);
    auto parallel_def = wl::make_workload(id);

    std::vector<KV> serial_out, parallel_out;
    cfg.exec_threads = 1;
    JobTrace serial = e.run(*serial_def, cfg, [&](const KV& kv) { serial_out.push_back(kv); });
    cfg.exec_threads = 4;
    JobTrace parallel =
        e.run(*parallel_def, cfg, [&](const KV& kv) { parallel_out.push_back(kv); });

    EXPECT_EQ(parallel.exec_threads_used, 4);
    EXPECT_EQ(serial.exec_threads_used, 1);
    expect_trace_eq(serial, parallel);

    // Output records stream through the sink in the same order too.
    ASSERT_EQ(serial_out.size(), parallel_out.size());
    for (std::size_t i = 0; i < serial_out.size(); ++i) {
      EXPECT_EQ(serial_out[i].key, parallel_out[i].key);
      EXPECT_EQ(serial_out[i].value, parallel_out[i].value);
    }
  }
}

TEST(EngineParallel, AutoWidthResolvesToHardwareAndStaysDeterministic) {
  Engine e;
  JobConfig cfg = parallel_config();
  auto a = wl::make_workload(wl::WorkloadId::kWordCount);
  auto b = wl::make_workload(wl::WorkloadId::kWordCount);
  cfg.exec_threads = 0;  // auto
  JobTrace t_auto = e.run(*a, cfg);
  EXPECT_EQ(t_auto.exec_threads_used, ThreadPool::hardware_threads());
  cfg.exec_threads = 1;
  expect_trace_eq(e.run(*b, cfg), t_auto);
}

TEST(EngineParallel, WidthBeyondTheTaskCountIsRecordedAsRequested) {
  // The pool never outgrows the widest wave, but the trace (and so a
  // cache file written from it) records the width asked for.
  Engine e;
  JobConfig cfg = parallel_config();
  auto a = wl::make_workload(wl::WorkloadId::kWordCount);
  auto b = wl::make_workload(wl::WorkloadId::kWordCount);
  cfg.exec_threads = 1000;
  JobTrace wide = e.run(*a, cfg);
  EXPECT_EQ(wide.exec_threads_used, 1000);
  cfg.exec_threads = 1;
  expect_trace_eq(e.run(*b, cfg), wide);
}

}  // namespace
}  // namespace bvl::mr
