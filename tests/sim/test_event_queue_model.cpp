// Differential test for the lazy-deletion 4-ary EventQueue: a random
// stream of push/cancel/pop operations is mirrored against a naive
// reference model (an ordered set of live (time, seq) keys), and every
// observable — size, emptiness, the fired event and the clock after
// each pop, cancel's return value — must match exactly. Each popped
// event must run its own callback: every callback carries its id in a
// payload (every third one too large for the inline storage), and
// every callback, run or cancelled, must be destroyed by the drain.
// The reference is obviously correct; the queue is fast. Any
// divergence (a lost event, a resurrected cancel, a tie broken out of
// submission order, a compaction that reorders) fails here before it
// can corrupt a replay.
//
// The op count is a compile-time knob: the tier-1 binary runs 10k ops,
// and the `slow`-labelled binary recompiles this file with
// BVL_MODEL_OPS=1000000 so CI stresses the queue at the scale the
// service simulation actually reaches (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

#ifndef BVL_MODEL_OPS
#define BVL_MODEL_OPS 10000
#endif

namespace bvl::sim {
namespace {

/// Counts its live copies: the queue must destroy every callback it
/// stored exactly once.
struct LiveToken {
  static inline int live = 0;
  LiveToken() { ++live; }
  LiveToken(const LiveToken&) { ++live; }
  LiveToken(LiveToken&&) noexcept { ++live; }
  LiveToken& operator=(const LiveToken&) = default;
  ~LiveToken() { --live; }
};

TEST(EventQueueModel, MatchesNaiveReferenceUnderRandomOps) {
  const int kOps = BVL_MODEL_OPS;
  Pcg32 rng(0x5eedULL, 0x0b5ULL);

  SimClock clock;
  EventQueue q;
  std::set<std::pair<Seconds, EventId>> ref;  // live events, queue order
  std::vector<Seconds> time_of;               // time of every id ever pushed
  std::vector<EventId> fired;

  auto push_one = [&] {
    // Coarse time grid on purpose: equal timestamps are common, so the
    // FIFO tie-break is exercised constantly, not incidentally.
    Seconds t = clock.now() + 0.5 * static_cast<double>(rng.uniform(0, 20));
    EventId my = static_cast<EventId>(time_of.size());
    EventId id;
    if (my % 3 == 0) {
      std::array<EventId, 12> payload;  // beyond sim::Callback's inline capacity
      payload.fill(my);
      id = q.push(t, [&fired, payload, tok = LiveToken{}] { fired.push_back(payload[11]); });
    } else {
      id = q.push(t, [&fired, my, tok = LiveToken{}] { fired.push_back(my); });
    }
    // Handles are documented to be the insertion sequence numbers.
    ASSERT_EQ(id, my);
    ref.insert({t, id});
    time_of.push_back(t);
  };
  auto cancel_one = [&] {
    if (time_of.empty()) return;
    // Any id ever issued — cancelling an already-run or already-
    // cancelled event must return false and change nothing.
    EventId id = rng.uniform(0, time_of.size() - 1);
    bool live = ref.erase({time_of[id], id}) > 0;
    ASSERT_EQ(q.cancel(id), live);
  };
  auto pop_one = [&] {
    if (ref.empty()) {
      ASSERT_TRUE(q.empty());
      return;
    }
    auto front = *ref.begin();
    ref.erase(ref.begin());
    std::size_t before = fired.size();
    q.run_next(clock);
    ASSERT_EQ(fired.size(), before + 1);
    ASSERT_EQ(fired.back(), front.second);
    ASSERT_EQ(clock.now(), front.first);
  };

  for (int op = 0; op < kOps; ++op) {
    double r = rng.next_double();
    if (r < 0.45) {
      push_one();
    } else if (r < 0.75) {
      cancel_one();
    } else {
      pop_one();
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
  }
  while (!ref.empty()) pop_one();
  ASSERT_TRUE(q.empty());
  ASSERT_EQ(q.size(), 0u);
  EXPECT_EQ(LiveToken::live, 0);
}

TEST(EventQueueModel, CancelHeavyPhasesForceCompaction) {
  // Push waves, cancel most of each wave (dead > live triggers the
  // in-place compaction), then verify the survivors still fire in
  // exact (time, seq) order.
  SimClock clock;
  EventQueue q;
  std::vector<EventId> fired;
  std::vector<std::pair<Seconds, EventId>> live;
  EventId next = 0;
  Pcg32 rng(7, 9);
  for (int wave = 0; wave < 20; ++wave) {
    std::vector<std::pair<Seconds, EventId>> wave_ids;
    for (int i = 0; i < 500; ++i) {
      Seconds t = static_cast<double>(rng.uniform(0, 50));
      EventId my = next++;
      ASSERT_EQ(q.push(t, [&fired, my] { fired.push_back(my); }), my);
      wave_ids.push_back({t, my});
    }
    // Cancel ~90% of this wave — dead quickly outnumbers live.
    for (std::size_t i = 0; i < wave_ids.size(); ++i) {
      if (i % 10 == 0) {
        live.push_back(wave_ids[i]);
      } else {
        ASSERT_TRUE(q.cancel(wave_ids[i].second));
      }
    }
  }
  // Survivors must fire in exact (time, seq) order despite the
  // compactions the cancels triggered.
  std::sort(live.begin(), live.end());
  ASSERT_EQ(q.size(), live.size());
  while (!q.empty()) q.run_next(clock);
  ASSERT_EQ(fired.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(fired[i], live[i].second);
  }
}

TEST(EventQueueModel, InterleavedCancelRepushKeepsFifoTiesAcrossCompaction) {
  // Regression shape for the lazy-cancel + in-place compaction pair:
  // cancel an event sitting in a timestamp tie cluster and immediately
  // repush its replacement at the SAME timestamp. The replacement gets
  // a fresh seq, so it must fire strictly after every older live event
  // at that time — and the compactions the cancels trigger (dead >
  // live) must not reorder the tie or resurrect the cancelled entry.
  // Times are drawn from four ticks only, so nearly every event lives
  // in a tie cluster and the (time, seq) order is load-bearing on
  // every single pop.
  SimClock clock;
  EventQueue q;
  std::vector<EventId> fired;
  std::set<std::pair<Seconds, EventId>> ref;
  std::vector<Seconds> time_of;
  Pcg32 rng(0xc0de, 0x11);

  auto push_at = [&](Seconds t) {
    EventId my = static_cast<EventId>(time_of.size());
    ASSERT_EQ(q.push(t, [&fired, my] { fired.push_back(my); }), my);
    ref.insert({t, my});
    time_of.push_back(t);
  };
  auto pop_one = [&] {
    auto front = *ref.begin();
    ref.erase(ref.begin());
    q.run_next(clock);
    ASSERT_EQ(fired.back(), front.second);
    ASSERT_EQ(clock.now(), front.first);
  };

  for (int op = 0; op < 4000; ++op) {
    double r = rng.next_double();
    if (r < 0.35 || ref.empty()) {
      push_at(clock.now() + 0.5 * static_cast<double>(rng.uniform(0, 3)));
    } else if (r < 0.85) {
      // The interleaving under test: cancel-then-repush at one tick.
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.uniform(0, ref.size() - 1)));
      auto [t, id] = *it;
      ref.erase(it);
      ASSERT_TRUE(q.cancel(id));
      ASSERT_FALSE(q.cancel(id));  // dead stays dead across the repush
      push_at(t);                  // replacement at the SAME timestamp
    } else {
      pop_one();
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
  }
  // Drain: every survivor (original or replacement) in (time, seq)
  // order, bit for bit against the reference.
  while (!ref.empty()) pop_one();
  ASSERT_TRUE(q.empty());
}

}  // namespace
}  // namespace bvl::sim
