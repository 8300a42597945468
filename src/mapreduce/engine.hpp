// The MapReduce engine: plans input splits from the HDFS block size,
// executes every map task (really running the workload's code over
// generated data), shuffles, executes reduce tasks, and emits a
// logical-scale JobTrace.
//
// Scaled execution: for large logical inputs the engine executes
// input_size / sim_scale bytes per split with a proportionally scaled
// spill buffer, then rescales the counters (WorkCounters::scaled).
// Scaling both the data and the buffer preserves the job's structure
// exactly — spill count, merge fan-in, tasks, waves — while linear
// work rescales proportionally. Tests verify scaled and unscaled runs
// agree.
//
// Parallel execution: map tasks (then reduce tasks) run concurrently
// on a worker pool: the one the engine was constructed with, shared
// with other runs, or else a JobConfig::exec_threads-wide pool of the
// run's own. Each task is a pure function of its index and writes
// only its own result slot; the engine merges results into the trace
// serially in task-index order, so the JobTrace is bit-identical
// regardless of thread count or pool (verified by
// tests/mapreduce/test_engine_parallel.cpp).
//
// Fault tolerance: JobConfig::fault carries a deterministic FaultPlan
// (mapreduce/fault.hpp). Failed attempts re-execute the task on the
// same split with bounded retry + exponential backoff; stragglers get
// a Hadoop-style speculative backup (first finisher wins, the loser's
// partial work is charged as waste). Per-attempt accounting lands in
// TaskTrace (attempts, wasted, backoff_s, time_factor) for the perf
// overlay to price. Because tasks are deterministic, the final job
// output of a faulty run is byte-identical to the fault-free run, and
// an inactive plan leaves the trace bit-identical to the committed
// golden fixtures (tests/golden).
#pragma once

#include <functional>

#include "mapreduce/api.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/trace.hpp"

namespace bvl {
class ThreadPool;
}

namespace bvl::mr {

class Engine {
 public:
  /// `pool`, when set, runs the task waves of every multi-threaded run
  /// (JobConfig::exec_threads other than 1), and its width, not
  /// exec_threads, bounds how many tasks run at once: several engines
  /// sharing one pool never run more tasks together than it is wide.
  /// Without one, each run starts its own exec_threads-wide pool.
  explicit Engine(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Floor on executed bytes per split, so tiny scaled splits still
  /// exercise real code.
  static constexpr Bytes kMinExecSplit = 4 * KB;
  static constexpr Bytes kMinExecBuffer = 2 * KB;

  /// Runs `def` under `cfg`; returns the logical-scale trace.
  /// If `output_sink` is set, job output records (executed scale) are
  /// streamed to it — examples use this to show real results.
  JobTrace run(JobDefinition& def, const JobConfig& cfg,
               const std::function<void(const KV&)>& output_sink = nullptr) const;

 private:
  ThreadPool* pool_;
};

}  // namespace bvl::mr
