#include "sim/resource.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace bvl::sim {

SlotPool::SlotPool(Simulation& sim, int slots) : sim_(sim), slots_(slots) {
  require(slots >= 1, "SlotPool: need at least one slot");
}

void SlotPool::set_in_use(int n) {
  Seconds now = sim_.now();
  busy_acc_ += static_cast<Seconds>(in_use_) * (now - last_change_);
  last_change_ = now;
  in_use_ = n;
}

Seconds SlotPool::busy_slot_seconds(Seconds now) const {
  return busy_acc_ + static_cast<Seconds>(in_use_) * (now - last_change_);
}

void SlotPool::acquire(Callback on_granted) {
  require(static_cast<bool>(on_granted), "SlotPool: null grant callback");
  if (in_use_ < slots_ && waiting() == 0) {
    set_in_use(in_use_ + 1);
    on_granted();
    return;
  }
  waiters_.push_back(std::move(on_granted));
}

bool SlotPool::try_acquire() {
  if (in_use_ >= slots_ || waiting() > 0) return false;
  set_in_use(in_use_ + 1);
  return true;
}

void SlotPool::release() {
  require(in_use_ > 0, "SlotPool: release without acquire");
  if (waiting() > 0) {
    // Hand the slot straight to the oldest waiter: in_use stays
    // constant, the grant callback fires from the event queue at the
    // current time so it interleaves FIFO with other pending events.
    Callback next = std::move(waiters_[head_++]);
    // Drop the granted prefix once it is half the buffer: O(1)
    // amortized per grant, and the storage is reused, not regrown.
    if (2 * head_ >= waiters_.size()) {
      waiters_.erase(waiters_.begin(), waiters_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    sim_.in(0, std::move(next));
    return;
  }
  set_in_use(in_use_ - 1);
}

void ServiceQueue::submit(Seconds service_s, Callback on_done) {
  require(service_s >= 0, "ServiceQueue: negative service time");
  require(static_cast<bool>(on_done), "ServiceQueue: null completion callback");
  Seconds start = std::max(sim_.now(), free_at_);
  free_at_ = start + service_s;
  busy_s_ += service_s;
  ++requests_;
  sim_.at(free_at_, std::move(on_done));
}

}  // namespace bvl::sim
