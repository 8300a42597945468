// Job execution trace: per-task logical-scale work counters, the
// input the timing/energy overlay (src/perf) consumes. A JobTrace is
// machine-independent — the same trace is priced on Xeon and Atom at
// every frequency, which is how one engine execution serves a whole
// characterization sweep.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mapreduce/counters.hpp"
#include "mapreduce/job.hpp"

namespace bvl::mr {

struct TaskTrace {
  WorkCounters counters;    ///< logical-scale counters (committed attempt)
  Bytes logical_bytes = 0;  ///< logical input bytes this task covered

  // Fault-recovery accounting (mapreduce/fault.hpp). All fields stay
  // at their neutral defaults on a fault-free run, so an inactive
  // FaultPlan leaves the trace bit-identical to the pre-fault engine.
  int attempts = 1;          ///< attempts consumed (committed + failed + backups)
  bool speculated = false;   ///< a speculative backup attempt was launched
  WorkCounters wasted;       ///< logical-scale work of failed/killed attempts
  double backoff_s = 0;      ///< retry backoff wait (model seconds)
  double time_factor = 1.0;  ///< completion time vs a fault-free attempt
};

struct JobTrace {
  std::string workload;
  JobConfig config;  ///< with num_reducers resolved
  std::vector<TaskTrace> map_tasks;
  std::vector<TaskTrace> reduce_tasks;
  WorkCounters setup;    ///< pre-job work (e.g. TeraSort sampling)
  WorkCounters cleanup;  ///< post-job bookkeeping

  /// True when the job's combiner saturated its key space (emits >>
  /// combined output): post-combine volumes were treated as
  /// scale-invariant during counter rescaling (see
  /// WorkCounters::scaled).
  bool combiner_saturated = false;

  /// Resolved executor width the engine was asked for (>= 1; config's
  /// exec_threads = 0 resolves to the hardware thread count). The pool
  /// itself never outgrows the job's widest wave. Purely informational
  /// — trace contents never depend on it.
  int exec_threads_used = 1;

  std::size_t num_map_tasks() const { return map_tasks.size(); }
  std::size_t num_reduce_tasks() const { return reduce_tasks.size(); }

  WorkCounters map_total() const;
  WorkCounters reduce_total() const;

  // Fault-recovery aggregates (all zero/neutral on a fault-free run).
  int total_attempts() const;         ///< Σ attempts over map + reduce tasks
  int speculative_backups() const;    ///< tasks that launched a backup
  double total_backoff_s() const;     ///< Σ retry backoff waits
};

}  // namespace bvl::mr
