// One node on the rack timeline and one dispatchable task: the units the
// replay core, the power runtime and both cluster_sim drivers share.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "arch/server_config.hpp"
#include "sim/resource.hpp"

namespace bvl::core::replay {

/// One physical node on the timeline: a slot pool plus its shared
/// disk and NIC service queues.
struct Node {
  const arch::ServerConfig* server = nullptr;
  int type_id = 0;  ///< index into the rack's distinct-type table
  int index = 0;    ///< instance number within its type
  std::unique_ptr<sim::SlotPool> slots;
  std::unique_ptr<sim::ServiceQueue> disk;
  std::unique_ptr<sim::ServiceQueue> nic;
  /// The queue a task's network demand will actually wait on: the
  /// node's own NIC by default, the fabric's ingress link for this
  /// node when a modeled fabric is attached. Dispatch estimates read
  /// backlog from here so ETF sees the same device the replay uses.
  const sim::ServiceQueue* nic_est = nullptr;
  /// Estimated end times of the tasks currently holding slots, so the
  /// dispatcher can reason about *when* a full node frees up instead
  /// of only about who is free right now (myopic greedy placement
  /// strands tail tasks on slow nodes — the classic heterogeneous
  /// straggler). Completions retire the earliest estimate. Kept
  /// sorted ascending; at most one entry per slot.
  std::vector<Seconds> est_ends;
  int tasks_run = 0;
  Joules energy = 0;

  bool has_free_slot() const { return slots->in_use() < slots->slots(); }
  /// Delay until a slot is expected to free (0 when one is free now).
  Seconds est_slot_delay(Seconds now) const {
    if (has_free_slot() || est_ends.empty()) return 0;
    return std::max<Seconds>(0, *est_ends.begin() - now);
  }
};

/// A dispatchable unit: one map or reduce task of one job.
struct TaskRef {
  std::size_t job = 0;
  int phase = 0;  ///< 0 = map, 1 = reduce
  std::size_t task = 0;
  std::size_t rr_node = 0;  ///< static target under kRoundRobin
};

}  // namespace bvl::core::replay
