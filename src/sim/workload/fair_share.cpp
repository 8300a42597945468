#include "sim/workload/fair_share.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace bvl::sim {

FairShareQueue::FairShareQueue(std::vector<TenantSpec> tenants) : specs_(std::move(tenants)) {
  require(!specs_.empty(), "FairShareQueue: need at least one tenant");
  for (const auto& t : specs_) {
    require(t.weight > 0, "FairShareQueue: tenant weight must be positive");
    require(t.arrival_share >= 0, "FairShareQueue: arrival share must be non-negative");
  }
  queues_.resize(specs_.size());
  vtime_.assign(specs_.size(), 0.0);
}

void FairShareQueue::enqueue(int tenant, std::uint64_t item) {
  auto t = static_cast<std::size_t>(tenant);
  require(t < specs_.size(), "FairShareQueue: unknown tenant");
  if (queues_[t].empty()) {
    // Idle tenants bank no credit: floor the waking tenant's clock to
    // the least backlogged clock so it resumes fair, not dominant.
    double floor_v = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      if (!queues_[i].empty()) floor_v = std::min(floor_v, vtime_[i]);
    }
    if (floor_v != std::numeric_limits<double>::infinity()) {
      vtime_[t] = std::max(vtime_[t], floor_v);
    }
  }
  queues_[t].push_back(item);
  ++queued_;
}

int FairShareQueue::next_tenant() const {
  std::vector<bool> skip;  // empty = consider everyone
  return next_tenant_excluding(skip);
}

int FairShareQueue::next_tenant_excluding(const std::vector<bool>& skip) const {
  int best = -1;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i].empty()) continue;
    if (i < skip.size() && skip[i]) continue;
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    auto b = static_cast<std::size_t>(best);
    if (specs_[i].priority != specs_[b].priority) {
      if (specs_[i].priority > specs_[b].priority) best = static_cast<int>(i);
    } else if (vtime_[i] < vtime_[b]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::uint64_t FairShareQueue::front(int tenant) const {
  const auto& q = queues_.at(static_cast<std::size_t>(tenant));
  require(!q.empty(), "FairShareQueue: front of empty tenant queue");
  return q.front();
}

std::uint64_t FairShareQueue::pop(int tenant) {
  auto& q = queues_.at(static_cast<std::size_t>(tenant));
  require(!q.empty(), "FairShareQueue: pop of empty tenant queue");
  std::uint64_t item = q.front();
  q.pop_front();
  --queued_;
  return item;
}

void FairShareQueue::charge(int tenant, double service) {
  auto t = static_cast<std::size_t>(tenant);
  require(t < specs_.size(), "FairShareQueue: unknown tenant");
  require(service >= 0, "FairShareQueue: negative service charge");
  vtime_[t] += service / specs_[t].weight;
}

double FairShareQueue::virtual_time(int tenant) const {
  return vtime_.at(static_cast<std::size_t>(tenant));
}

}  // namespace bvl::sim
