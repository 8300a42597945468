// Per-task cost extraction: the machine-dependent work of each task in
// a JobTrace (instructions, shared-disk bytes, shuffle bytes), computed
// once per priced job. PerfModel sums these records into the closed
// form's phase terms, each task's totals in task order, and
// EventPricer splits the same records and terms into per-task service
// demands and replays them on the sim kernel.
#pragma once

#include <vector>

#include "perf/perf_model.hpp"

namespace bvl::perf {

/// Machine-dependent cost of one task: its committed attempt plus the
/// fault-recovery residue of its failed attempts.
struct TaskCost {
  double inst = 0;           ///< committed-attempt instructions, codec included
  double device_bytes = 0;   ///< bytes hitting the shared disk, failed attempts' included
  double seeks = 0;
  double net_bytes = 0;      ///< shuffle bytes crossing the NIC, failed attempts' included
  double time_factor = 1.0;  ///< fault completion-time multiplier
  Seconds backoff_s = 0;     ///< retry backoff wait (wall-clock, no energy)
  double wasted_inst = 0;    ///< failed/killed attempts' instructions (DRAM traffic only)
  double ws_contrib = 0;     ///< capped per-task working-set estimate
};

/// One phase's extracted cost: per-task records plus the signature and
/// power-model inputs both pricers share.
struct PhaseCost {
  const arch::Signature* sig = nullptr;
  std::vector<TaskCost> tasks;
  Seconds fixed_s = 0;            ///< unconditional wall time (setup/cleanup)
  double fixed_inst = 0;          ///< task-less instructions ("other" phase)
  double fixed_device_bytes = 0;
  double fixed_seeks = 0;
  double ws_bytes = 64.0 * 1024;  ///< phase-mean working set
  double mem_refs_per_inst = 0.35;
  double locality_theta = 0.8;

  int ntasks() const { return static_cast<int>(tasks.size()); }
  bool empty() const { return tasks.empty() && fixed_s == 0 && fixed_inst == 0; }
};

struct JobCost {
  PhaseCost map;
  PhaseCost reduce;
  PhaseCost other;
};

/// Extracts per-task costs of `trace` on a server with `slots`
/// concurrent task slots. Pure function of its inputs: the page-cache
/// share, compression factors, and wasted-work volumes are all
/// resolved here so pricers never re-read the raw trace.
JobCost extract_job_cost(const mr::JobTrace& trace, const arch::ServerConfig& server,
                         const arch::StorageModel& storage, const hdfs::DfsConfig& dfs,
                         const ClusterConfig& cluster, int slots);

}  // namespace bvl::perf
