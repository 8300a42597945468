#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace bvl::sim {

namespace {
constexpr std::size_t kArity = 4;
/// Below this many entries a compaction saves too little to bother.
constexpr std::size_t kCompactFloor = 64;
}  // namespace

void SimClock::advance_to(Seconds t) {
  require(t >= now_, "SimClock: time must not run backwards");
  now_ = t;
}

void EventQueue::sift_up(std::size_t i) {
  Entry e = std::move(heap_[i]);
  while (i > 0) {
    std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(e);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Entry e = std::move(heap_[i]);
  for (;;) {
    std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = std::move(heap_[best]);
    i = best;
  }
  heap_[i] = std::move(e);
}

EventId EventQueue::push(Seconds time, std::function<void()> fn) {
  require(static_cast<bool>(fn), "EventQueue: null event callback");
  EventId id = next_seq_++;
  spent_.push_back(false);
  heap_.push_back(Entry{time, id, std::move(fn)});
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
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

void EventQueue::compact() {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (spent_[heap_[i].seq]) continue;
    if (keep != i) heap_[keep] = std::move(heap_[i]);
    ++keep;
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
  Entry e = std::move(heap_.front());
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  spent_[e.seq] = true;
  --live_;
  drop_dead_top();
  clock.advance_to(e.time);
  e.fn();
}

EventId Simulation::at(Seconds t, std::function<void()> fn) {
  require(t >= clock_.now(), "Simulation: event scheduled in the past");
  return queue_.push(t, std::move(fn));
}

EventId Simulation::in(Seconds delay, std::function<void()> fn) {
  require(delay >= 0, "Simulation: negative delay");
  return queue_.push(clock_.now() + delay, std::move(fn));
}

void Simulation::run() {
  while (!queue_.empty()) {
    queue_.run_next(clock_);
    ++events_run_;
  }
}

}  // namespace bvl::sim
