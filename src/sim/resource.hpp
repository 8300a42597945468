// Contended resources on the simulation timeline. A node is modeled
// as a fixed pool of task slots (Hadoop's tasktracker maximum) plus
// one shared disk and one NIC, each a serialized FIFO device — the
// same shape PerfModel's closed form assumes, now as queues whose
// waiting is emergent rather than a max()+penalty formula.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace bvl::sim {

/// Fixed number of task slots with a FIFO wait queue. Two usage
/// styles:
///   * push — acquire(cb): the callback fires (possibly immediately)
///     when a slot frees, in request order;
///   * pull — try_acquire(): a scheduler polls for a free slot and
///     places work itself (cluster_sim's policy dispatch).
/// Both maintain the busy-time integral used for utilization reports.
class SlotPool {
 public:
  SlotPool(Simulation& sim, int slots);

  /// Requests a slot; `on_granted` runs at the grant time. Grants are
  /// FIFO among waiters.
  void acquire(Callback on_granted);

  /// Takes a free slot immediately, or returns false. Never jumps the
  /// acquire() wait queue.
  bool try_acquire();

  /// Returns a slot. The oldest waiter (if any) is granted at the
  /// current time, via the event queue so grant order stays FIFO even
  /// across multiple releases at one timestamp.
  void release();

  int slots() const { return slots_; }
  int in_use() const { return in_use_; }
  std::size_t waiting() const { return waiters_.size() - head_; }

  /// Integral of in_use over time up to `now` (slot-seconds).
  Seconds busy_slot_seconds(Seconds now) const;

 private:
  void set_in_use(int n);

  Simulation& sim_;
  int slots_;
  int in_use_ = 0;
  Seconds busy_acc_ = 0;      ///< integral up to last_change_
  Seconds last_change_ = 0;
  /// FIFO of pending grants from waiters_[head_]; the granted prefix
  /// is dropped in place once it is half the buffer.
  std::vector<Callback> waiters_;
  std::size_t head_ = 0;
};

/// One serialized device (disk or NIC): a request of `service_s`
/// starts when the device frees and completes service_s later.
/// Requests are FIFO; zero-length requests complete at submit time
/// but still round-trip the event queue so callback order is stable.
class ServiceQueue {
 public:
  explicit ServiceQueue(Simulation& sim) : sim_(sim) {}

  /// Enqueues a request; `on_done` fires at its completion time.
  void submit(Seconds service_s, Callback on_done);

  /// Earliest time a new request could start service.
  Seconds free_at() const { return free_at_; }

  Seconds busy_s() const { return busy_s_; }
  std::uint64_t requests() const { return requests_; }

 private:
  Simulation& sim_;
  Seconds free_at_ = 0;
  Seconds busy_s_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace bvl::sim
