// The rack's frequency domains — per-node DVFS levels stepped by a
// governor under a rack power cap, with in-flight compute legs repriced
// at every level change — shared by both rack replays.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cluster_sim.hpp"
#include "core/replay/node.hpp"
#include "power/power_model.hpp"
#include "sim/event_queue.hpp"
#include "util/error.hpp"

namespace bvl::core::replay {

/// The rack's frequency-domain runtime: one DVFS level per node,
/// stepped by the configured governor on a fixed control period and
/// clamped by the rack power cap. Owns the in-flight compute legs so
/// a level change reprices the unfinished fraction of every running
/// task on that node (EventQueue cancellation is O(1) amortized), and
/// meters the modeled rack draw at every draw-changing event so the
/// cap invariant — draw never exceeds cap_w at any event timestamp —
/// is enforced there, not just at control ticks. Each node's draw is
/// cached and re-evaluated only when that node's slot count or level
/// changes. Only constructed when PowerPlanSpec::active(): the
/// default path schedules zero extra events and stays byte-identical.
class PowerRuntime {
 public:
  PowerRuntime(sim::Simulation& sim, const power::PowerPlanSpec& spec,
               const std::vector<Node>& nodes, Hertz base_freq, const char* where)
      : sim_(sim), spec_(spec), nodes_(nodes) {
    // An infinite period would put the last tick, and with it the
    // replay's clock, at t = inf.
    require(std::isfinite(spec.period_s) && spec.period_s > 0,
            std::string(where) + ": power control period must be finite and > 0");
    if (spec.governor == power::GovernorKind::kOndemand) {
      require(0 < spec.down_threshold && spec.down_threshold < spec.up_threshold &&
                  spec.up_threshold <= 1.0,
              std::string(where) + ": need 0 < down_threshold < up_threshold <= 1");
    }
    Watts idle_total = 0;
    Watts max_delta = 0;
    state_.reserve(nodes.size());
    for (const Node& n : nodes) {
      NodeState s(*n.server);
      s.base_level = s.table->level_of(base_freq);
      switch (spec.governor) {
        case power::GovernorKind::kPerformance: s.level = s.table->levels() - 1; break;
        case power::GovernorKind::kPowersave: s.level = 0; break;
        default: s.level = s.base_level; break;  // kNone (cap only), kOndemand
      }
      s.plan = power::FreqPlan::constant(s.table->level_freq(s.level));
      s.legs.reserve(static_cast<std::size_t>(n.slots->slots()));
      idle_total += n.server->power.system_idle_w;
      Hertz fmin = s.table->level_freq(0);
      max_delta = std::max(max_delta, s.model.node_draw(1, fmin) - s.model.node_draw(0, fmin));
      state_.push_back(std::move(s));
    }
    draws_.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) refresh(i);
    if (spec.rack_cap_w > 0) {
      // Liveness: with the whole rack idle at the bottom level the cap
      // must still admit one task somewhere, or pending work could
      // deadlock with nothing running to re-trigger dispatch.
      require(spec.rack_cap_w >= idle_total + max_delta,
              std::string(where) +
                  ": rack_cap_w is below the rack idle floor plus one bottom-level task — "
                  "no task could ever be admitted");
    }
    meter();
  }

  /// Wires the control loop: `more_work` keeps it alive (a tick that
  /// sees no more work does not reschedule, letting the queue drain);
  /// `after_tick` re-runs dispatch, since a tick can free capped
  /// capacity (level lowering under ondemand/powersave, headroom
  /// recovery toward the base level under a cap).
  void begin(std::function<bool()> more_work, std::function<void()> after_tick) {
    more_work_ = std::move(more_work);
    after_tick_ = std::move(after_tick);
    sim_.in(spec_.period_s, [this] { tick(); });
  }

  /// Cap admission gate for one more task on `flat`: throttles the
  /// node down DVFS levels until the post-admission draw fits under
  /// the cap; false (defer — the scheduler sees capped capacity) when
  /// even the bottom level does not fit.
  bool admit(std::size_t flat) {
    if (spec_.rack_cap_w <= 0) return true;
    NodeState& s = state_[flat];
    auto delta = [&] {
      return s.model.node_draw(nodes_[flat].slots->in_use() + 1, s.freq()) - draws_[flat];
    };
    while (draw_ + delta() > spec_.rack_cap_w + kCapEps && s.level > 0) {
      set_level(flat, s.level - 1);
    }
    return draw_ + delta() <= spec_.rack_cap_w + kCapEps;
  }

  /// The power-mode compute channel: registers the leg (so level
  /// changes can reprice it) and schedules its completion at the
  /// current level's duration. `levels` is the task's render row, as
  /// the replay core keeps it: levels[1 + l] is the job rendered at
  /// DVFS level l, and task `task` of `phase` (0 = map, 1 = reduce)
  /// there has the leg's full compute time at that level.
  void start_compute(std::size_t flat, const std::vector<perf::JobSim>& levels, int phase,
                     std::size_t task, sim::Callback done) {
    NodeState& s = state_[flat];
    ComputeLeg leg;
    leg.levels = &levels;
    leg.phase = phase;
    leg.task = task;
    Seconds dur = leg.dur_at(s.level);
    require(dur >= 0, "PowerRuntime: negative compute duration");
    if (dur <= 0) {  // nothing to reprice; keep the event semantics
      sim_.in(0, std::move(done));
      return;
    }
    leg.key = next_leg_++;
    leg.done = std::move(done);
    leg.since = sim_.now();
    leg.cur_dur = dur;
    leg.ev = sim_.in(dur, fire(flat, leg.key));
    s.legs.push_back(std::move(leg));
  }

  /// Call after a slot acquire/release on `flat`: advances the draw
  /// integral with the old draw, then re-samples with `flat`'s draw
  /// re-evaluated.
  void draw_changed(std::size_t flat) {
    refresh(flat);
    meter();
  }

  /// The modeled rack draw as last metered.
  Watts draw() const { return draw_; }
  /// `flat`'s current DVFS level.
  int level(std::size_t flat) const { return state_[flat].level; }
  /// DVFS transitions so far, across all nodes.
  int level_changes() const { return level_changes_; }

  PowerStats finish(Seconds end) {
    energy_ += draw_ * (end - metered_to_);
    metered_to_ = end;
    PowerStats st;
    st.active = true;
    st.cap_w = spec_.rack_cap_w;
    st.metered_energy = energy_;
    st.peak_draw = peak_;
    st.cap_exceeded = cap_exceeded_;
    st.level_changes = level_changes_;
    st.node_plans.reserve(state_.size());
    for (const NodeState& s : state_) st.node_plans.push_back(s.plan);
    return st;
  }

 private:
  static constexpr Watts kCapEps = 1e-9;

  /// One running task's compute on a node: where its per-level
  /// durations are, its scheduled completion and its progress.
  struct ComputeLeg {
    const std::vector<perf::JobSim>* levels = nullptr;  ///< the task's render row
    int phase = 0;           ///< 0 = map, 1 = reduce
    std::size_t task = 0;    ///< index within the phase
    std::uint64_t key = 0;   ///< names the leg to its completion event
    sim::EventId ev = 0;     ///< the scheduled completion
    double frac = 0;         ///< fraction completed before `since`
    Seconds since = 0;       ///< when the current schedule began
    Seconds cur_dur = 0;     ///< full duration at the current level
    sim::Callback done;

    /// Full duration at DVFS level `level`.
    Seconds dur_at(int level) const {
      const perf::JobSim& p = (*levels)[1 + static_cast<std::size_t>(level)];
      return (phase == 0 ? p.map_tasks[task] : p.reduce_tasks[task]).cpu_s;
    }
  };

  struct NodeState {
    explicit NodeState(const arch::ServerConfig& server)
        : table(&server.dvfs),
          model(server),
          plan(power::FreqPlan::constant(server.dvfs.max_freq())) {}
    const arch::DvfsTable* table;
    power::PowerModel model;
    power::FreqPlan plan;  ///< realized frequency timeline
    int level = 0;
    int base_level = 0;    ///< the static operating point (cap recovery target)
    double last_busy = 0;  ///< busy-slot-seconds snapshot at the last tick
    /// Running legs in start order, at most one per slot.
    std::vector<ComputeLeg> legs;
    Hertz freq() const { return table->level_freq(level); }
  };

  /// The completion event of `flat`'s leg `key`: drops the leg, then
  /// runs its continuation.
  sim::Callback fire(std::size_t flat, std::uint64_t key) {
    return [this, flat, key] {
      std::vector<ComputeLeg>& legs = state_[flat].legs;
      auto it = std::find_if(legs.begin(), legs.end(),
                             [key](const ComputeLeg& leg) { return leg.key == key; });
      sim::Callback done = std::move(it->done);
      legs.erase(it);
      done();
    };
  }

  /// Re-evaluates `flat`'s cached draw after its slot count or level
  /// changed.
  void refresh(std::size_t flat) {
    const NodeState& s = state_[flat];
    draws_[flat] = s.model.node_draw(nodes_[flat].slots->in_use(), s.freq());
  }

  void meter() {
    Seconds now = sim_.now();
    energy_ += draw_ * (now - metered_to_);
    metered_to_ = now;
    // A fresh left-to-right sum in node order, never draw_ += new - old:
    // the delta form drifts in the last bits, and the peak, the metered
    // energy and every cap decision read this value.
    draw_ = 0;
    for (Watts w : draws_) draw_ += w;
    peak_ = std::max(peak_, draw_);
    if (spec_.rack_cap_w > 0 && draw_ > spec_.rack_cap_w + kCapEps) cap_exceeded_ = true;
  }

  void set_level(std::size_t flat, int level) {
    NodeState& s = state_[flat];
    if (level == s.level) return;
    s.level = level;
    s.plan.append(sim_.now(), s.freq());
    ++level_changes_;
    reprice(flat);
    refresh(flat);
    meter();
  }

  /// Mid-flight repricing: every running compute leg on the node
  /// carries its completed fraction across the level change and the
  /// remainder is rescheduled at the new level's duration.
  void reprice(std::size_t flat) {
    NodeState& s = state_[flat];
    Seconds now = sim_.now();
    for (ComputeLeg& leg : s.legs) {
      if (leg.cur_dur > 0) leg.frac += (now - leg.since) / leg.cur_dur;
      leg.frac = std::min(leg.frac, 1.0);
      sim_.cancel(leg.ev);
      leg.since = now;
      leg.cur_dur = leg.dur_at(s.level);
      leg.ev = sim_.in(std::max<Seconds>(0, (1.0 - leg.frac) * leg.cur_dur), fire(flat, leg.key));
    }
  }

  /// Would raising `flat` one level keep the rack under the cap?
  bool raise_fits(std::size_t flat) const {
    if (spec_.rack_cap_w <= 0) return true;
    const NodeState& s = state_[flat];
    Watts next = s.model.node_draw(nodes_[flat].slots->in_use(), s.table->level_freq(s.level + 1));
    return draw_ - draws_[flat] + next <= spec_.rack_cap_w + kCapEps;
  }

  void tick() {
    if (!more_work_()) return;  // drained: stop ticking so the queue empties
    Seconds now = sim_.now();
    Seconds dt = now - last_tick_;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      NodeState& s = state_[i];
      double busy = nodes_[i].slots->busy_slot_seconds(now);
      double util = dt > 0 ? (busy - s.last_busy) /
                                 (static_cast<double>(nodes_[i].slots->slots()) * dt)
                           : 0.0;
      s.last_busy = busy;
      int want = spec_.governor == power::GovernorKind::kNone
                     ? s.base_level  // cap-only: recover toward the static point
                     : power::govern_level(spec_, s.level, s.table->levels(), util);
      // Lowering is always cap-safe; each raise must keep the rack
      // under the cap with its current occupancy.
      while (s.level > want) set_level(i, s.level - 1);
      while (s.level < want && raise_fits(i)) set_level(i, s.level + 1);
    }
    last_tick_ = now;
    sim_.in(spec_.period_s, [this] { tick(); });
    after_tick_();  // a tick can free capped capacity: re-run dispatch
  }

  sim::Simulation& sim_;
  const power::PowerPlanSpec spec_;
  const std::vector<Node>& nodes_;
  std::vector<NodeState> state_;
  std::vector<Watts> draws_;  ///< per node: node_draw at its slot count and level
  std::function<bool()> more_work_;
  std::function<void()> after_tick_;
  Watts draw_ = 0;
  Watts peak_ = 0;
  Joules energy_ = 0;
  Seconds metered_to_ = 0;
  Seconds last_tick_ = 0;
  bool cap_exceeded_ = false;
  int level_changes_ = 0;
  std::uint64_t next_leg_ = 0;  ///< key of the next leg started
};

}  // namespace bvl::core::replay
