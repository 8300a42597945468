// Discrete-event simulation kernel: a clock and a 4-ary-heap event
// queue with lazy deletion. Everything time-shaped in the repo —
// per-task phase replay (perf/pricer), the multi-job rack mix and the
// open job-stream service simulation (core/cluster_sim) — runs on
// this one timeline, so wave shapes, slot contention, map/shuffle
// overlap, and straggler stretch emerge from event ordering instead of
// being scalar corrections bolted onto a closed form.
//
// Determinism / tie ordering (the contract every replay relies on):
// events at equal timestamps fire in submission order — each push is
// stamped with a monotone sequence number and the heap orders by
// (time, seq) — so a replay is a pure function of its inputs: same
// trace, same schedule, bit for bit. The guarantee survives cancels:
// cancelling an event never reorders the remaining ones, because
// cancellation only marks the entry and the (time, seq) keys of live
// entries are untouched (tests/sim/test_sim_kernel.cpp pins
// equal-time FIFO order across interleaved cancels).
//
// Layout: the heap orders 24-byte keys — time, seq and the index of a
// callback slot — and the callbacks (sim::Callback, inline storage)
// live in a slot store beside it, so a sift moves keys only. A slot is
// recycled through a free list once its key leaves the heap; the
// callback is moved out of its slot before it runs, so a callback may
// push events that grow the store. Neither a push nor a pop allocates
// once the heap, the store and the free list have reached the run's
// peak size.
//
// Scale: the heap is 4-ary (children of i at 4i+1..4i+4), which
// roughly halves the tree depth of a binary heap and keeps each
// sift's children in one or two cache lines — the difference between
// a batch replay with hundreds of pending events and a service-mode
// horizon holding millions (see BENCH_service.json for the profiled
// push/pop/cancel costs at 1M pending events). Cancellation is lazy:
// cancel(id) marks the entry and pops skip it, so cancel is O(1)
// amortized instead of a heap rebuild; when dead entries outnumber
// live ones the queue compacts in place (O(n), amortized against the
// cancels that created the garbage) so memory stays within 2x live.
// A cancelled callback is destroyed, and its slot freed, when its key
// is dropped, so a later push may reuse the slot; the dead key it
// shared never runs.
//
// Joins: a fan-in (a task's cpu, disk and net legs; a flow's hops; a
// shuffle's per-source flows) counts its legs down on one pooled
// record the Simulation owns, instead of a shared counter and one
// copy of the continuation per leg.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "util/units.hpp"

namespace bvl::sim {

/// Monotone simulated time. The queue owns advancement; user code only
/// reads `now()`.
class SimClock {
 public:
  Seconds now() const { return now_; }

  /// Moves time forward. Rejects travel into the past — an event
  /// scheduled before `now()` is a bug in the caller, not a policy.
  void advance_to(Seconds t);

 private:
  Seconds now_ = 0;
};

/// Handle for a scheduled event, usable with cancel(). Handles are the
/// insertion sequence numbers, so they are unique per queue lifetime
/// and never reused.
using EventId = std::uint64_t;

/// Min-heap of (time, seq, callback slot). `seq` is the insertion order
/// and breaks timestamp ties FIFO (see the header comment for the full
/// tie-ordering contract).
class EventQueue {
 public:
  /// Reserves room for a single-node replay's pending events, so a
  /// short replay never regrows its heap or store.
  EventQueue();

  /// Schedules `fn` and returns a handle for cancel().
  EventId push(Seconds time, Callback fn);

  /// Marks a pending event dead; it will be skipped when it reaches
  /// the top of the heap. Returns false when `id` is not pending
  /// (already run, already cancelled, or never issued). Never affects
  /// the firing order of the remaining events.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  /// Live (non-cancelled) pending events.
  std::size_t size() const { return live_; }

  /// Pops the earliest live event, advances `clock` to its timestamp,
  /// and runs its callback (which may push further events).
  void run_next(SimClock& clock);

 private:
  struct Key {
    Seconds time = 0;
    EventId seq = 0;
    std::uint32_t slot = 0;  ///< index into slots_
  };
  /// Min-heap order: earlier (time, seq) first.
  static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes the top key, restoring the heap order.
  void pop_top();
  /// Destroys a dropped key's callback and recycles its slot.
  void free_slot(std::uint32_t slot);
  /// Drops cancelled entries sitting at the top, maintaining the
  /// invariant that heap_.front() (when live_ > 0) is a live event.
  void drop_dead_top();
  /// Rebuilds the heap without the dead entries once they dominate.
  void compact();

  std::vector<Key> heap_;  ///< 4-ary min-heap on (time, seq)
  /// The callback store: one slot per key in the heap, dead or live.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< slots no key refers to
  /// One bit per id ever issued: set = ran or cancelled. An id with a
  /// clear bit is exactly a live heap entry, which is what makes
  /// cancel O(1) — no pending-set bookkeeping on the push/pop path.
  std::vector<bool> spent_;
  std::size_t live_ = 0;  ///< heap entries whose spent_ bit is clear
  EventId next_seq_ = 0;
};

/// A fan-in's handle: the index of its record in the Simulation's pool.
using JoinId = std::uint32_t;

/// A join's continuation: room for one Callback plus two words, so a
/// continuation can wrap the caller's Callback with a little state
/// (a delay, a byte count) without allocating.
using JoinCallback = InlineFunction<void(), sizeof(Callback) + 2 * sizeof(void*)>;

/// Clock + queue + run loop: the object a replay drives.
class Simulation {
 public:
  Simulation();
  Simulation(const Simulation&) = delete;  // leg() callbacks capture `this`
  Simulation& operator=(const Simulation&) = delete;

  Seconds now() const { return clock_.now(); }

  /// Schedules `fn` at absolute time `t` (>= now()).
  EventId at(Seconds t, Callback fn);

  /// Schedules `fn` at now() + delay (delay >= 0).
  EventId in(Seconds delay, Callback fn);

  /// Cancels a pending event scheduled by at()/in(). Returns false
  /// when it already ran or was already cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Opens a fan-in of `legs` (>= 1) completions: `then` runs inside
  /// the last leg's arrive(), and the record returns to the pool
  /// first, so `then` may open joins of its own.
  JoinId join(int legs, JoinCallback then);
  /// Counts one leg of `join` as done.
  void arrive(JoinId join);
  /// A Callback that arrives at `join`: hand one to each leg.
  Callback leg(JoinId join) {
    return [this, join] { arrive(join); };
  }

  /// Runs events in (time, submission) order until the queue drains.
  void run();

  std::uint64_t events_run() const { return events_run_; }
  std::size_t pending() const { return queue_.size(); }

 private:
  struct JoinRecord {
    int remaining = 0;
    JoinCallback then;
  };

  SimClock clock_;
  EventQueue queue_;
  std::uint64_t events_run_ = 0;
  std::vector<JoinRecord> joins_;     ///< the join pool
  std::vector<JoinId> free_joins_;    ///< records no open join holds
};

}  // namespace bvl::sim
