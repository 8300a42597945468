// Unit tests for the discrete-event kernel: ordering (including FIFO
// tie-breaks — the determinism contract every replay relies on), slot
// pools in both push and pull styles, and the serialized FIFO device.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/resource.hpp"

namespace bvl::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(3.0, [&] { order.push_back(3); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_run(), 3u);
}

TEST(EventQueue, EqualTimestampsFireInSubmissionOrder) {
  Simulation sim;
  std::string order;
  for (char c : std::string("abcdef")) {
    sim.at(1.0, [&order, c] { order.push_back(c); });
  }
  sim.run();
  EXPECT_EQ(order, "abcdef");
}

TEST(EventQueue, EqualTimeFifoOrderSurvivesCancels) {
  // The tie-ordering contract (see sim/event_queue.hpp): events at
  // equal timestamps fire in submission order, and cancelling some of
  // them never reorders the survivors — cancellation only marks
  // entries, the (time, seq) keys of live events are untouched.
  Simulation sim;
  std::string order;
  std::vector<EventId> ids;
  for (char c : std::string("abcdefgh")) {
    ids.push_back(sim.at(1.0, [&order, c] { order.push_back(c); }));
  }
  EXPECT_TRUE(sim.cancel(ids[2]));   // c
  EXPECT_TRUE(sim.cancel(ids[5]));   // f
  EXPECT_FALSE(sim.cancel(ids[2]));  // double-cancel is a no-op
  // Late submissions at the same timestamp still queue after the
  // earlier survivors.
  sim.at(1.0, [&order] { order.push_back('i'); });
  sim.at(1.0, [&order] { order.push_back('j'); });
  sim.run();
  EXPECT_EQ(order, "abdeghij");
  // Events that already ran can no longer be cancelled.
  EXPECT_FALSE(sim.cancel(ids[0]));
}

TEST(EventQueue, CancelledEventsNeverFireAndFreeTheQueue) {
  Simulation sim;
  int fired = 0;
  EventId id = sim.at(5.0, [&] { ++fired; });
  sim.at(1.0, [&] { EXPECT_TRUE(sim.cancel(id)); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 1.0);  // the cancelled event never advanced time
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventQueue, CallbacksMayScheduleFurtherEvents) {
  Simulation sim;
  std::vector<Seconds> fire_times;
  int remaining = 4;
  std::function<void()> tick = [&] {
    fire_times.push_back(sim.now());
    if (--remaining > 0) sim.in(0.5, tick);
  };
  sim.at(1.0, tick);
  sim.run();
  EXPECT_EQ(fire_times, (std::vector<Seconds>{1.0, 1.5, 2.0, 2.5}));
}

TEST(EventQueue, InterleavesNestedSchedulingWithPendingEvents) {
  Simulation sim;
  std::vector<int> order;
  sim.at(2.0, [&] { order.push_back(20); });
  sim.at(1.0, [&] {
    order.push_back(10);
    sim.at(1.5, [&] { order.push_back(15); });
    // Same-time nested event runs after already-queued t=1 events.
    sim.in(0, [&] { order.push_back(11); });
  });
  sim.at(1.0, [&] { order.push_back(12); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 12, 11, 15, 20}));
}

// ---------------------------------------------------------------------------
// Callback storage: the heap orders keys and the callbacks live in a
// slot store that is recycled through a free list (sim/event_queue.hpp).
// ---------------------------------------------------------------------------

/// Counts its live copies, so a test can see that every callback the
/// queue stored was destroyed exactly once.
struct LiveToken {
  static inline int live = 0;
  LiveToken() { ++live; }
  LiveToken(const LiveToken&) { ++live; }
  LiveToken(LiveToken&&) noexcept { ++live; }
  LiveToken& operator=(const LiveToken&) = default;
  ~LiveToken() { --live; }
};

TEST(EventQueue, CallbackMayGrowTheStoreWhileItRuns) {
  // The running callback pushes far more events than the store holds,
  // so the store reallocates under it; its own captures must survive
  // (it was moved out of its slot before running) and every pushed
  // event must run in (time, seq) order.
  Simulation sim;
  std::vector<int> order;
  const std::string tag(64, 'x');  // heap-held capture, read after the growth
  sim.at(1.0, [&sim, &order, tag] {
    for (int i = 0; i < 5000; ++i) {
      sim.in(static_cast<double>(i % 7), [&order, i] { order.push_back(i); });
    }
    order.push_back(static_cast<int>(tag.size()));
  });
  sim.run();
  ASSERT_EQ(order.size(), 5001u);
  EXPECT_EQ(order.front(), 64);
  std::vector<int> expected;
  for (int r = 0; r < 7; ++r) {
    for (int i = r; i < 5000; i += 7) expected.push_back(i);
  }
  EXPECT_EQ(std::vector<int>(order.begin() + 1, order.end()), expected);
}

TEST(EventQueue, ReusedSlotOfACancelledEventNeverRunsTheOldCallback) {
  // a and b share a timestamp; b is cancelled. Popping a drops b's
  // dead key, so both slots are free while a runs, and the two events
  // a pushes take exactly those two slots (the store does not grow).
  // b's callback must be gone, and the new events queue behind every
  // older event at their time.
  LiveToken::live = 0;
  {
    Simulation sim;
    std::string order;
    sim.at(1.0, [&] {
      order.push_back('a');
      sim.at(1.0, [&order, t = LiveToken{}] { order.push_back('c'); });
      sim.at(1.0, [&order, t = LiveToken{}] { order.push_back('d'); });
    });
    const EventId b = sim.at(1.0, [&order, t = LiveToken{}] { order.push_back('b'); });
    sim.at(2.0, [&order] { order.push_back('e'); });
    EXPECT_EQ(LiveToken::live, 1);
    EXPECT_TRUE(sim.cancel(b));
    sim.run();
    EXPECT_EQ(order, "acde");
    EXPECT_FALSE(sim.cancel(b));
    EXPECT_EQ(LiveToken::live, 0);  // b's callback was destroyed, c's and d's ran
  }
  EXPECT_EQ(LiveToken::live, 0);
}

TEST(EventQueue, PopsAfterCompactionOverReusedSlotsKeepOrder) {
  // Two rounds of cancel-driven compaction; the second runs over slots
  // the first freed and later pushes reused. The survivors of both
  // rounds must fire in exact (time, seq) order, each running its own
  // callback, and every cancelled callback must be destroyed.
  LiveToken::live = 0;
  {
    EventQueue q;
    SimClock clock;
    std::vector<EventId> fired;
    std::vector<std::pair<Seconds, EventId>> live;
    EventId next = 0;
    auto push_round = [&](int n) {
      std::vector<std::pair<Seconds, EventId>> ids;
      for (int i = 0; i < n; ++i) {
        const Seconds t = static_cast<double>((i * 37) % 11);
        const EventId my = next++;
        ASSERT_EQ(q.push(t, [&fired, my, tok = LiveToken{}] { fired.push_back(my); }), my);
        ids.push_back({t, my});
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i % 8 == 0) {
          live.push_back(ids[i]);
        } else {
          ASSERT_TRUE(q.cancel(ids[i].second));
        }
      }
    };
    push_round(400);  // compacts; frees the cancelled slots
    push_round(400);  // reuses them, then compacts over them
    std::sort(live.begin(), live.end());
    ASSERT_EQ(q.size(), live.size());
    // Dead entries not yet dropped still hold their callbacks.
    EXPECT_GE(static_cast<std::size_t>(LiveToken::live), live.size());
    while (!q.empty()) q.run_next(clock);
    ASSERT_EQ(fired.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i) EXPECT_EQ(fired[i], live[i].second);
    EXPECT_EQ(LiveToken::live, 0);
  }
  EXPECT_EQ(LiveToken::live, 0);
}

TEST(EventQueue, JoinRunsItsContinuationOnTheLastLegAndRecyclesItsRecord) {
  Simulation sim;
  std::vector<std::string> log;
  const JoinId first = sim.join(3, [&] { log.push_back("first@" + std::to_string(sim.now())); });
  sim.at(2.0, sim.leg(first));
  sim.at(1.0, sim.leg(first));
  sim.at(3.0, [&] {
    sim.arrive(first);
    // The record was recycled before the continuation ran, so a join
    // opened now may take it; its legs are counted afresh.
    const JoinId second = sim.join(2, [&] { log.push_back("second@" + std::to_string(sim.now())); });
    EXPECT_EQ(second, first);
    sim.in(1.0, sim.leg(second));
    sim.in(1.0, sim.leg(second));
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"first@3.000000", "second@4.000000"}));
}

TEST(SimClock, RejectsTimeTravel) {
  Simulation sim;
  sim.at(5.0, [&] { EXPECT_ANY_THROW(sim.at(4.0, [] {})); });
  sim.run();
}

TEST(SlotPool, GrantsImmediatelyWhenFree) {
  Simulation sim;
  SlotPool pool(sim, 2);
  int granted = 0;
  pool.acquire([&] { ++granted; });
  pool.acquire([&] { ++granted; });
  EXPECT_EQ(granted, 2);  // no event-loop turn needed
  EXPECT_EQ(pool.in_use(), 2);
}

TEST(SlotPool, QueuesWaitersFifoAcrossReleases) {
  Simulation sim;
  SlotPool pool(sim, 1);
  std::vector<std::pair<int, Seconds>> grants;
  for (int i = 0; i < 3; ++i) {
    sim.at(0, [&, i] { pool.acquire([&grants, &sim, i] { grants.emplace_back(i, sim.now()); }); });
  }
  // Holder of the slot releases at t=1; each waiter holds for 1s.
  sim.at(1.0, [&] { pool.release(); });
  sim.at(2.0, [&] { pool.release(); });
  sim.at(3.0, [&] { pool.release(); });
  sim.run();
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_EQ(grants[0], (std::pair<int, Seconds>{0, 0.0}));
  EXPECT_EQ(grants[1], (std::pair<int, Seconds>{1, 1.0}));
  EXPECT_EQ(grants[2], (std::pair<int, Seconds>{2, 2.0}));
  EXPECT_EQ(pool.in_use(), 0);
}

TEST(SlotPool, TryAcquireNeverJumpsTheWaitQueue) {
  Simulation sim;
  SlotPool pool(sim, 1);
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_FALSE(pool.try_acquire());  // full
  bool waiter_granted = false;
  pool.acquire([&] { waiter_granted = true; });
  pool.release();
  // Grant is queued, not yet delivered: a pull-style poll must not
  // steal the slot from the committed waiter.
  EXPECT_FALSE(pool.try_acquire());
  sim.run();
  EXPECT_TRUE(waiter_granted);
}

TEST(SlotPool, BusyIntegralTracksOccupancy) {
  Simulation sim;
  SlotPool pool(sim, 2);
  sim.at(0.0, [&] { ASSERT_TRUE(pool.try_acquire()); });
  sim.at(0.0, [&] { ASSERT_TRUE(pool.try_acquire()); });
  sim.at(2.0, [&] { pool.release(); });   // 2 slots busy for [0,2)
  sim.at(5.0, [&] { pool.release(); });   // 1 slot busy for [2,5)
  sim.run();
  EXPECT_DOUBLE_EQ(pool.busy_slot_seconds(sim.now()), 2 * 2.0 + 1 * 3.0);
  // The integral extends an open interval to the query time.
  ASSERT_TRUE(pool.try_acquire());
  EXPECT_DOUBLE_EQ(pool.busy_slot_seconds(10.0), 7.0 + 1 * (10.0 - 5.0));
}

TEST(ServiceQueue, SerializesRequestsFifo) {
  Simulation sim;
  ServiceQueue disk(sim);
  std::vector<std::pair<int, Seconds>> done;
  sim.at(0.0, [&] {
    disk.submit(2.0, [&] { done.emplace_back(0, sim.now()); });
    disk.submit(1.0, [&] { done.emplace_back(1, sim.now()); });
  });
  // Arrives while busy: starts at 3, not at its submit time 2.5.
  sim.at(2.5, [&] { disk.submit(0.5, [&] { done.emplace_back(2, sim.now()); }); });
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], (std::pair<int, Seconds>{0, 2.0}));
  EXPECT_EQ(done[1], (std::pair<int, Seconds>{1, 3.0}));
  EXPECT_EQ(done[2], (std::pair<int, Seconds>{2, 3.5}));
  EXPECT_DOUBLE_EQ(disk.busy_s(), 3.5);
  EXPECT_EQ(disk.requests(), 3u);
}

TEST(ServiceQueue, IdleGapsDoNotAccrueBusyTime) {
  Simulation sim;
  ServiceQueue disk(sim);
  sim.at(0.0, [&] { disk.submit(1.0, [] {}); });
  sim.at(10.0, [&] { disk.submit(1.0, [] {}); });
  sim.run();
  EXPECT_DOUBLE_EQ(disk.busy_s(), 2.0);
  EXPECT_DOUBLE_EQ(disk.free_at(), 11.0);
}

TEST(ServiceQueue, ZeroLengthRequestCompletesAtSubmitTime) {
  Simulation sim;
  ServiceQueue nic(sim);
  Seconds done_at = -1;
  sim.at(4.0, [&] { nic.submit(0.0, [&] { done_at = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 4.0);
}

}  // namespace
}  // namespace bvl::sim
