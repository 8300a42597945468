#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace bvl::sim {

namespace {
constexpr std::size_t kArity = 4;
/// Below this many entries a compaction saves too little to bother.
constexpr std::size_t kCompactFloor = 64;
/// Initial room: pending events, event ids, and open joins.
constexpr std::size_t kInitialPending = 64;
constexpr std::size_t kInitialIds = 1024;
constexpr std::size_t kInitialJoins = 16;
}  // namespace

void SimClock::advance_to(Seconds t) {
  require(t >= now_, "SimClock: time must not run backwards");
  now_ = t;
}

EventQueue::EventQueue() {
  heap_.reserve(kInitialPending);
  slots_.reserve(kInitialPending);
  free_slots_.reserve(kInitialPending);
  spent_.reserve(kInitialIds);
}

void EventQueue::sift_up(std::size_t i) {
  const Key k = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / kArity;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key k = heap_[i];
  for (;;) {
    std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

void EventQueue::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::free_slot(std::uint32_t slot) {
  slots_[slot] = nullptr;
  free_slots_.push_back(slot);
}

EventId EventQueue::push(Seconds time, Callback fn) {
  require(static_cast<bool>(fn), "EventQueue: null event callback");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  EventId id = next_seq_++;
  spent_.push_back(false);
  heap_.push_back(Key{time, id, slot});
  sift_up(heap_.size() - 1);
  ++live_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  // spent_ covers every id ever issued: a set bit means the event
  // already ran or was already cancelled, so only a clear bit marks a
  // live heap entry. That makes cancel O(1) plus the (amortized)
  // dead-top drop below.
  if (id >= next_seq_ || spent_[id]) return false;
  spent_[id] = true;
  --live_;
  drop_dead_top();
  if (heap_.size() - live_ > live_ && heap_.size() > kCompactFloor) compact();
  return true;
}

void EventQueue::drop_dead_top() {
  while (!heap_.empty() && spent_[heap_.front().seq]) {
    free_slot(heap_.front().slot);
    pop_top();
  }
}

void EventQueue::compact() {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (spent_[heap_[i].seq]) {
      free_slot(heap_[i].slot);
      continue;
    }
    heap_[keep++] = heap_[i];
  }
  heap_.resize(keep);
  // Floyd heapify: sift_down from the last internal node. Heap order
  // is on unique (time, seq) keys, so the resulting pop order is
  // independent of the array order we start from.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
}

void EventQueue::run_next(SimClock& clock) {
  require(live_ > 0, "EventQueue: run_next on empty queue");
  const Key k = heap_.front();
  pop_top();
  spent_[k.seq] = true;
  --live_;
  // Out of the store before it runs: the callback may push events,
  // which may grow slots_ or reuse this very slot.
  Callback fn = std::move(slots_[k.slot]);
  free_slots_.push_back(k.slot);
  drop_dead_top();
  clock.advance_to(k.time);
  fn();
}

Simulation::Simulation() {
  joins_.reserve(kInitialJoins);
  free_joins_.reserve(kInitialJoins);
}

EventId Simulation::at(Seconds t, Callback fn) {
  require(t >= clock_.now(), "Simulation: event scheduled in the past");
  return queue_.push(t, std::move(fn));
}

EventId Simulation::in(Seconds delay, Callback fn) {
  require(delay >= 0, "Simulation: negative delay");
  return queue_.push(clock_.now() + delay, std::move(fn));
}

JoinId Simulation::join(int legs, JoinCallback then) {
  require(legs >= 1, "Simulation: a join needs at least one leg");
  require(static_cast<bool>(then), "Simulation: null join continuation");
  JoinId id;
  if (free_joins_.empty()) {
    id = static_cast<JoinId>(joins_.size());
    joins_.emplace_back();
  } else {
    id = free_joins_.back();
    free_joins_.pop_back();
  }
  joins_[id].remaining = legs;
  joins_[id].then = std::move(then);
  return id;
}

void Simulation::arrive(JoinId join) {
  JoinRecord& r = joins_[join];
  require(r.remaining > 0, "Simulation: arrival at a closed join");
  if (--r.remaining > 0) return;
  JoinCallback then = std::move(r.then);
  free_joins_.push_back(join);
  then();
}

void Simulation::run() {
  while (!queue_.empty()) {
    queue_.run_next(clock_);
    ++events_run_;
  }
}

}  // namespace bvl::sim
