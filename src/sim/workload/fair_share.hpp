// Multi-tenant admission for the service simulation: each tenant owns
// a FIFO queue of opaque work items and the scheduler serves tenants
// by strict priority, then start-time-fair weighted sharing within a
// priority class. This is the YARN fair-scheduler shape — queues with
// weights, FIFO within a queue — reduced to the decision the service
// replay actually needs: "whose head-of-line task gets the next slot".
//
// Fairness accounting is virtual-time based (SFQ style): serving a
// tenant charges `service / weight` to its virtual clock, the
// scheduler always picks the backlogged tenant with the smallest
// virtual clock, and a tenant going from idle to backlogged is floored
// to the minimum backlogged clock so an idle spell banks no credit.
// Every decision is deterministic: priority, then virtual time, then
// tenant index.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace bvl::sim {

struct TenantSpec {
  std::string name;
  double weight = 1.0;         ///< fair-share weight within a priority class
  int priority = 0;            ///< higher = served strictly first
  double arrival_share = 1.0;  ///< relative share of the open arrival stream
};

class FairShareQueue {
 public:
  explicit FairShareQueue(std::vector<TenantSpec> tenants);

  int tenants() const { return static_cast<int>(specs_.size()); }
  const TenantSpec& spec(int tenant) const { return specs_.at(static_cast<std::size_t>(tenant)); }

  /// Appends `item` to the tenant's FIFO queue.
  void enqueue(int tenant, std::uint64_t item);

  bool empty() const { return queued_ == 0; }
  std::size_t size() const { return queued_; }

  /// The tenant whose head item should be served next (highest
  /// priority, then least virtual time, then lowest index), or -1
  /// when every queue is empty. Pure observation — pop() to commit.
  int next_tenant() const;

  /// After `next_tenant`, a scheduler that cannot place that tenant's
  /// head right now needs the runner-up: the same selection restricted
  /// to tenants not in `skip`. Returns -1 when none qualify.
  int next_tenant_excluding(const std::vector<bool>& skip) const;

  std::uint64_t front(int tenant) const;
  std::uint64_t pop(int tenant);

  /// Charges `service` (normalized by the tenant's weight) to the
  /// tenant's virtual clock. Call when an item starts service.
  void charge(int tenant, double service);

  /// Attained service per tenant in virtual (weight-normalized) units;
  /// the fairness differential tests integrate against this.
  double virtual_time(int tenant) const;

 private:
  std::vector<TenantSpec> specs_;
  std::vector<std::deque<std::uint64_t>> queues_;
  std::vector<double> vtime_;
  std::size_t queued_ = 0;
};

}  // namespace bvl::sim
