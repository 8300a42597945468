// Task placement as a pluggable subsystem. The batch (simulate_mix)
// and service (simulate_service) replays historically carried the
// three placement policies as inline switch arms; this layer extracts
// the DECISION — "which node should this task start on" — behind one
// interface while each replay keeps owning its node bookkeeping and
// candidate enumeration.
//
// Contract the adapters are written against (and the goldens pin):
// placement is a pure function of the task context and the candidates
// presented. A policy never mutates node state, and ties break by
// enumeration order via strict less-than — first candidate wins — so a
// CandidateSource must enumerate in the replay's historical scan order
// (batch: flat node order, less candidates the source proves cannot
// win; service: per-type index fronts in type order) for the legacy
// policies to reproduce their decisions bit for bit. A policy that is
// score_determined() lets the batch source drop such candidates and
// the batch driver share one deferral among tasks it cannot tell apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace bvl::sim {
class Fabric;
}

namespace bvl::core {

/// Task-placement policies for the mix and service timelines.
enum class MixPolicy {
  /// Paper policy at task granularity: a task prefers a free slot on
  /// its job's class-preferred type (C -> little, I -> big, per
  /// schedule_by_class) and spills to the other type only when the
  /// preferred side has no free slot — work-conserving, so pressure
  /// splits a job across big and little nodes.
  kClassAware,
  /// Greedy: each task goes to the free slot whose estimated finish
  /// (compute + device backlog) is soonest, class-blind.
  kEarliestFinish,
  /// Static striping of tasks over nodes regardless of load or class;
  /// a task waits for "its" node even while others idle (baseline).
  kRoundRobin,
  /// Fabric-feedback-aware earliest finish: the ETF estimate is
  /// augmented with the shuffle bytes the choice would push across
  /// ToR/spine links — maps herd toward the rack already holding the
  /// job's map outputs, reduces toward the rack that minimizes
  /// cross-rack fetch, both priced against the live spine backlog.
  /// Class-blind. Without a modeled fabric it degrades to exactly
  /// kEarliestFinish (every locality penalty is zero).
  kRackLocal,
};

std::string to_string(MixPolicy p);

/// Inverse of to_string: "class-aware" / "earliest-finish" /
/// "round-robin" / "rack-local". nullopt on any other name — drivers
/// reject unknown names with exit 2 rather than guessing.
std::optional<MixPolicy> mix_policy_from_string(std::string_view name);

namespace placement {

/// pick() result for "defer this task" — nothing suitable now, or the
/// best choice is a full node worth waiting for (ETF semantics: the
/// driver leaves the task pending and a completion re-runs dispatch).
inline constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

/// One placement candidate, pre-scored by the replay that owns the
/// node state. `est_finish` is the unified ETF signal both replays
/// compute: slot-wait delay plus the estimated task duration after
/// that delay (0 delay when a slot is free now).
struct Candidate {
  std::size_t flat = 0;   ///< flat node id
  bool is_big = false;    ///< node is the big (Xeon-class) type
  bool free = false;      ///< has a free task slot right now
  int rack = 0;           ///< fabric rack (0 when no fabric is modeled)
  Seconds est_finish = 0;
};

/// Everything a policy may know about the task being placed. The
/// fabric-aware policy reads the job's shuffle geometry; the legacy
/// three only touch phase/prefers_big/rr_node.
struct TaskContext {
  int phase = 0;  ///< 0 = map, 1 = reduce
  bool prefers_big = false;
  std::size_t rr_node = 0;       ///< static target under kRoundRobin
  Seconds now = 0;
  double net_bytes = 0;          ///< this task's total shuffle volume
  double job_shuffle_bytes = 0;  ///< the whole job's reduce fetch volume
  int job_maps = 0;
  /// Map tasks by flat node id — where the job's shuffle sources live.
  /// May be null (policies must tolerate it).
  const std::map<std::size_t, int>* maps_by_node = nullptr;
};

/// The replay's view of its nodes, presented to a policy. all() must
/// enumerate candidates in the historical scan order (see the file
/// comment); at() random-accesses one node for kRoundRobin.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;
  /// Candidates in canonical order. The reference is valid until the
  /// next all()/at() call on this source; policies take it once.
  virtual const std::vector<Candidate>& all() = 0;
  virtual Candidate at(std::size_t flat) = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  /// Flat id of the chosen node, or kNoNode to defer. May return a
  /// currently-full node: that is the ETF "worth waiting for" signal
  /// and the driver defers dispatch until a slot frees.
  virtual std::size_t pick(const TaskContext& task, CandidateSource& nodes) const = 0;
  /// True when pick() reads the task only through the candidates'
  /// est_finish (its per-type renders), `phase` and `prefers_big`, and
  /// each candidate only through `is_big`, `free`, `rack` and
  /// `est_finish`, using `flat` only as the first-wins tie-break. Then
  /// two tasks with equal renders, phase and preference get the same
  /// pick, and a candidate equal in those four fields to an earlier one
  /// can never win.
  virtual bool score_determined() const = 0;
};

/// Policy factory. `fabric` (may be null) is the live fabric the
/// kRackLocal policy prices its locality penalties against; the three
/// legacy policies ignore it.
std::unique_ptr<PlacementPolicy> make_placement_policy(MixPolicy policy,
                                                       const sim::Fabric* fabric);

}  // namespace placement
}  // namespace bvl::core
