// Simulated HDFS: block planning and the job-level DFS costs.
//
// The paper's system-level knob is the HDFS block size (32-512 MB).
// Its two effects are structural and reproduced here:
//   * number of map tasks = ceil(input / block size), so small blocks
//     multiply per-task scheduling overhead and master interaction
//     (why 32 MB is always worst, Sec. 3.1.1);
//   * block size sets the sequential-run length on disk, so large
//     blocks amortize seeks (why I/O-bound apps keep improving to
//     512 MB while compute-bound apps plateau at 256 MB).
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace bvl::hdfs {

struct DfsConfig {
  Bytes block_size = 128 * MB;
  /// Fixed master (JobTracker/RM) interaction cost per task, seconds.
  /// Covers heartbeat-based assignment and task launch.
  Seconds per_task_overhead_s = 2.2;
  /// One-time job setup / cleanup wall cost, seconds.
  Seconds job_setup_s = 4.0;
  Seconds job_cleanup_s = 3.0;
};

/// One HDFS block of a logical input file.
struct BlockInfo {
  std::uint64_t id = 0;
  Bytes offset = 0;
  Bytes length = 0;
};

/// Plans the block list for a file of `file_size` bytes. The final
/// block may be short. Throws on zero sizes.
std::vector<BlockInfo> plan_blocks(Bytes file_size, Bytes block_size);

/// Number of map tasks Hadoop would launch for this input
/// (= number of blocks; the paper's "Input data size / HDFS block
/// size" formula in Sec. 3.1.1).
std::uint64_t num_map_tasks(Bytes file_size, Bytes block_size);

}  // namespace bvl::hdfs
