#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bvl {
namespace {

/// Threads in this process per /proc/self/status, or -1 off Linux.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ThreadPool pool(8);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t) { sum.fetch_add(1); });
  pool.parallel_for(7, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 17);
}

TEST(ThreadPool, MoreWorkersThanWork) {
  ThreadPool pool(16);
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 3);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "no work expected"; });
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("task 37 failed");
                        }),
      std::runtime_error);
  // Error state resets: the pool keeps working afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(5, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 5);
}

TEST(ThreadPool, EarliestSubmittedFailureIsTheOneRethrown) {
  // Two workers and three one-index chunks: one worker holds chunk 0
  // while the other runs chunk 1, records its failure, and only then
  // pops chunk 2, which lets chunk 0 fail too. Chunk 0's failure lands
  // last, yet it is the one parallel_for() rethrows.
  std::exception_ptr rethrown;
  {
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    try {
      pool.parallel_for(3, [&release](std::size_t i) {
        if (i == 0) {
          while (!release.load()) std::this_thread::yield();
          throw std::runtime_error("task 0");
        }
        if (i == 1) throw std::runtime_error("task 1");
        release.store(true);
      });
    } catch (...) {
      rethrown = std::current_exception();
    }
    // The failure belonged to that call: the next one starts clean.
    EXPECT_NO_THROW(pool.parallel_for(2, [](std::size_t) {}));
  }
  // Read the failure only once the workers have joined: the one that
  // threw it may still be dropping its reference, through a count kept
  // in the uninstrumented standard library that TSan cannot see.
  ASSERT_TRUE(rethrown) << "parallel_for() swallowed both failures";
  try {
    std::rethrow_exception(rethrown);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  }
}

TEST(ThreadPool, ConcurrentCallersWaitOnlyForTheirOwnChunks) {
  // One caller's only task holds a worker until released; a second
  // caller's 100 indices finish on the other workers and it returns
  // while the first is still blocked.
  ThreadPool pool(4);
  std::atomic<bool> started{false}, release{false}, slow_done{false};
  std::thread slow([&] {
    pool.parallel_for(1, [&](std::size_t) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    slow_done.store(true);
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 100);
  EXPECT_FALSE(slow_done.load());
  release.store(true);
  slow.join();
  EXPECT_TRUE(slow_done.load());
}

TEST(ThreadPool, ConcurrentCallersGetOnlyTheirOwnFailure) {
  // Two threads share one pool; only the first one's loop throws. Each
  // caller sees exactly its own outcome, however the chunks interleave.
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::string failing_saw, healthy_saw = "none";
    std::atomic<int> healthy_ran{0};
    std::thread failing([&] {
      try {
        pool.parallel_for(50, [](std::size_t i) {
          if (i % 7 == 3) throw std::runtime_error("index " + std::to_string(i));
        });
      } catch (const std::runtime_error&) {
        failing_saw = "runtime_error";
      }
    });
    try {
      pool.parallel_for(50, [&](std::size_t) { healthy_ran.fetch_add(1); });
    } catch (...) {
      healthy_saw = "thrown";
    }
    failing.join();
    EXPECT_EQ(failing_saw, "runtime_error") << "round " << round;
    EXPECT_EQ(healthy_saw, "none") << "round " << round;
    EXPECT_EQ(healthy_ran.load(), 50) << "round " << round;
  }
}

TEST(ThreadPool, NestedCallFromAWorkerRunsInline) {
  // A task that loops on its own pool must not wait for chunks that
  // only the (busy) workers could run: with one worker that would
  // never return. The inner loop runs in order on the task's thread.
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  std::thread::id outer, inner;
  bool nested_on_worker = false;
  pool.parallel_for(1, [&](std::size_t) {
    outer = std::this_thread::get_id();
    nested_on_worker = pool.on_worker();
    pool.parallel_for(4, [&](std::size_t i) {
      inner = std::this_thread::get_id();
      order.push_back(i);
    });
  });
  EXPECT_TRUE(nested_on_worker);
  EXPECT_FALSE(pool.on_worker());
  EXPECT_EQ(inner, outer);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, WorkersStartOnlyForQueuedChunks) {
  // A wide pool starts no worker until used, and then only as many as
  // the chunks in hand: 3 indices never need more than 3 threads.
  const int before = process_threads();
  ThreadPool pool(64);
  EXPECT_EQ(pool.size(), 64);
  EXPECT_EQ(process_threads(), before);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.parallel_for(3, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), 3u);
  EXPECT_LE(process_threads() - before, 3);  // both read -1 off Linux
}

TEST(ThreadPool, ResolveSemantics) {
  EXPECT_EQ(ThreadPool::resolve(0), ThreadPool::hardware_threads());
  EXPECT_EQ(ThreadPool::resolve(-3), ThreadPool::hardware_threads());
  EXPECT_EQ(ThreadPool::resolve(1), 1);
  EXPECT_EQ(ThreadPool::resolve(12), 12);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, FreeParallelForSerialFallback) {
  // threads=1 runs inline: exceptions propagate directly and ordering
  // is the plain loop order.
  std::vector<std::size_t> order;
  parallel_for(1, 4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));

  std::atomic<int> sum{0};
  parallel_for(8, 100, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, FreeParallelForSizesItsPoolToTheTaskCount) {
  // A width far beyond the work spawns no idle workers: 3 indices run
  // on at most 3 threads, and the process never holds the other 997.
  std::mutex mu;
  std::set<std::thread::id> ids;
  const int before = process_threads();
  int most_threads = before;
  parallel_for(1000, 3, [&](std::size_t) {
    const int threads = process_threads();
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    most_threads = std::max(most_threads, threads);
  });
  EXPECT_LE(ids.size(), 3u);
  EXPECT_LE(most_threads - before, 3);  // both read -1 off Linux
}

}  // namespace
}  // namespace bvl
