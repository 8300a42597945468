// Multi-tenant admission: the service replay's "whose head-of-line task
// gets the next slot" decision — strict priority, then least
// weight-normalized virtual time, then lowest tenant index — and the
// rule that a tenant waking from idle banks no credit.
#include "sim/workload/fair_share.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace bvl::sim {
namespace {

TenantSpec tenant(const char* name, double weight = 1.0, int priority = 0) {
  TenantSpec t;
  t.name = name;
  t.weight = weight;
  t.priority = priority;
  return t;
}

TEST(FairShareQueue, EmptyQueueHasNoNextTenant) {
  FairShareQueue q({tenant("a"), tenant("b")});
  EXPECT_EQ(q.tenants(), 2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_tenant(), -1);
  EXPECT_THROW(q.front(0), Error);
  EXPECT_THROW(q.pop(1), Error);
}

TEST(FairShareQueue, EachTenantIsFifo) {
  FairShareQueue q({tenant("a"), tenant("b")});
  for (std::uint64_t item : {7u, 3u, 9u}) q.enqueue(1, item);
  q.enqueue(0, 42);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.front(1), 7u);
  EXPECT_EQ(q.pop(1), 7u);
  EXPECT_EQ(q.pop(1), 3u);
  EXPECT_EQ(q.pop(1), 9u);
  EXPECT_EQ(q.pop(0), 42u);
  EXPECT_TRUE(q.empty());
}

TEST(FairShareQueue, HigherPriorityIsServedFirstWhateverItsVirtualTime) {
  FairShareQueue q({tenant("batch"), tenant("interactive", 1.0, /*priority=*/1)});
  q.enqueue(0, 0);
  q.enqueue(1, 1);
  q.enqueue(1, 2);
  q.charge(1, 1000.0);  // far ahead of tenant 0 on virtual time
  EXPECT_EQ(q.next_tenant(), 1);
  q.pop(1);
  EXPECT_EQ(q.next_tenant(), 1);
  q.pop(1);
  EXPECT_EQ(q.next_tenant(), 0);
}

TEST(FairShareQueue, LeastVirtualTimeThenLowestIndexWithinAClass) {
  FairShareQueue q({tenant("a"), tenant("b"), tenant("c")});
  for (int t = 0; t < 3; ++t) q.enqueue(t, static_cast<std::uint64_t>(t));
  EXPECT_EQ(q.next_tenant(), 0);  // all at zero: the lowest index
  q.charge(0, 2.0);
  EXPECT_EQ(q.next_tenant(), 1);
  q.charge(1, 1.0);
  EXPECT_EQ(q.next_tenant(), 2);
  q.charge(2, 1.0);
  EXPECT_EQ(q.next_tenant(), 1);  // b and c tie at 1.0: the lower index
}

TEST(FairShareQueue, ChargeIsNormalizedByWeight) {
  FairShareQueue q({tenant("light", 1.0), tenant("heavy", 4.0)});
  q.charge(0, 8.0);
  q.charge(1, 8.0);
  EXPECT_DOUBLE_EQ(q.virtual_time(0), 8.0);
  EXPECT_DOUBLE_EQ(q.virtual_time(1), 2.0);
  EXPECT_THROW(q.charge(0, -1.0), Error);
  EXPECT_THROW(q.charge(2, 1.0), Error);
}

TEST(FairShareQueue, BackloggedTenantsShareServiceInProportionToWeight) {
  // Both tenants stay backlogged (a new item is queued before the head
  // leaves) and every item costs one unit: the weight-4 tenant is
  // served four times as often.
  FairShareQueue q({tenant("one", 1.0), tenant("four", 4.0)});
  std::vector<int> served(2, 0);
  for (int t = 0; t < 2; ++t) q.enqueue(t, 0);
  for (int step = 0; step < 400; ++step) {
    int t = q.next_tenant();
    ASSERT_GE(t, 0);
    q.enqueue(t, static_cast<std::uint64_t>(step) + 1);
    q.pop(t);
    q.charge(t, 1.0);
    ++served[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(served[0], 80);
  EXPECT_EQ(served[1], 320);
  EXPECT_DOUBLE_EQ(q.virtual_time(0), q.virtual_time(1));
}

TEST(FairShareQueue, IdleTenantBanksNoCredit) {
  FairShareQueue q({tenant("busy"), tenant("sleeper"), tenant("ahead")});
  q.enqueue(0, 0);
  q.charge(0, 10.0);
  // Waking while tenant 0 is backlogged at 10: resumes at 10, not at 0,
  // so it cannot monopolize the slots to catch up.
  q.enqueue(1, 1);
  EXPECT_DOUBLE_EQ(q.virtual_time(1), 10.0);
  EXPECT_EQ(q.next_tenant(), 0);  // tie at 10: the lower index
  // A tenant already past the backlogged clocks keeps its own.
  q.charge(2, 25.0);
  q.enqueue(2, 2);
  EXPECT_DOUBLE_EQ(q.virtual_time(2), 25.0);
  // A second item for a backlogged tenant does not touch its clock.
  q.charge(1, 3.0);
  q.enqueue(1, 3);
  EXPECT_DOUBLE_EQ(q.virtual_time(1), 13.0);
}

TEST(FairShareQueue, WakingWithNobodyBackloggedKeepsItsClock) {
  FairShareQueue q({tenant("a"), tenant("b")});
  q.charge(0, 5.0);
  q.charge(1, 2.0);
  q.enqueue(0, 0);
  EXPECT_DOUBLE_EQ(q.virtual_time(0), 5.0);
  q.pop(0);
  q.enqueue(1, 1);
  EXPECT_DOUBLE_EQ(q.virtual_time(1), 2.0);
}

TEST(FairShareQueue, NextTenantExcludingReturnsTheRunnerUp) {
  FairShareQueue q({tenant("a"), tenant("urgent", 1.0, /*priority=*/1), tenant("c")});
  for (int t = 0; t < 3; ++t) q.enqueue(t, 0);
  q.charge(0, 1.0);
  EXPECT_EQ(q.next_tenant(), 1);
  EXPECT_EQ(q.next_tenant_excluding({false, true, false}), 2);
  EXPECT_EQ(q.next_tenant_excluding({false, true, true}), 0);
  EXPECT_EQ(q.next_tenant_excluding({true, true, true}), -1);
  // A mask shorter than the tenant list skips only the tenants it covers.
  EXPECT_EQ(q.next_tenant_excluding({false, true}), 2);
  EXPECT_EQ(q.next_tenant_excluding({}), q.next_tenant());
  // Only observation: nothing was popped.
  EXPECT_EQ(q.size(), 3u);
}

TEST(FairShareQueue, RejectsEmptyOrUnweightedTenants) {
  EXPECT_THROW(FairShareQueue(std::vector<TenantSpec>{}), Error);
  EXPECT_THROW(FairShareQueue({tenant("zero", 0.0)}), Error);
  EXPECT_THROW(FairShareQueue({tenant("negative", -1.0)}), Error);
  TenantSpec bad_share = tenant("share");
  bad_share.arrival_share = -0.5;
  EXPECT_THROW(FairShareQueue({bad_share}), Error);
  FairShareQueue q({tenant("only")});
  EXPECT_THROW(q.enqueue(1, 0), Error);
  EXPECT_THROW(q.enqueue(-1, 0), Error);
}

}  // namespace
}  // namespace bvl::sim
