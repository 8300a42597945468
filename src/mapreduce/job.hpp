// Job configuration: the tuning knobs the paper sweeps plus engine
// scaling parameters.
#pragma once

#include <cstdint>
#include <string>

#include "mapreduce/fault.hpp"
#include "util/units.hpp"

namespace bvl::mr {

struct JobConfig {
  /// Logical input size per node (the paper runs 1/10/20 GB per node).
  Bytes input_size = 1 * GB;

  /// HDFS block size: the paper's system-level knob (32-512 MB).
  Bytes block_size = 128 * MB;

  /// Reduce task count; 0 forces map-only regardless of the job
  /// definition (engine uses definition default when < 0).
  int num_reducers = -1;

  /// Map-side sort buffer (mapreduce.task.io.sort.mb); spills happen
  /// when the buffered output exceeds it.
  Bytes spill_buffer = 100 * MB;

  bool use_combiner = true;

  /// mapreduce.map.output.compress: spills, the merged map output and
  /// the shuffle travel compressed (the standard TeraSort tuning).
  /// The engine still executes on raw data; the perf overlay divides
  /// intermediate byte volumes by `compression_ratio` and charges the
  /// codec's CPU cost per uncompressed byte.
  bool compress_map_output = false;
  double compression_ratio = 3.5;

  /// Logical-to-executed ratio: the engine actually executes
  /// input_size / sim_scale bytes of generated data per node and
  /// rescales the counters. 1 executes everything.
  double sim_scale = 1.0;

  /// Task-executor width: the engine runs the job's map tasks (and
  /// then its reduce tasks) concurrently on a worker pool of up to this
  /// many threads (no wider than the larger wave). 0 = one worker per
  /// hardware thread; 1 = the legacy serial path. Task results are
  /// merged in task-index order, so the emitted JobTrace is
  /// bit-identical for every value (verified by
  /// tests/mapreduce/test_engine_parallel.cpp).
  int exec_threads = 0;

  /// Fault-injection plan plus retry/speculation policy (see
  /// mapreduce/fault.hpp). The default plan is inactive: the engine
  /// takes its fault-free path and the trace is bit-identical to a
  /// build without the fault layer (tests/golden enforces this).
  FaultPlan fault;

  std::uint64_t seed = 42;
};

/// Trace-cache key of `cfg`: every field that can change the trace of
/// one workload, doubles by their exact bit pattern. `exec_threads` is
/// left out (it never changes a trace) and an inactive fault plan keys
/// as 0 (it takes the fault-free path). Plain text, because the on-disk
/// cache embeds it verbatim as its collision guard.
std::string trace_key(const JobConfig& cfg);

}  // namespace bvl::mr
