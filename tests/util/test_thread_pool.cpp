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
  // Two workers: one holds task 0 while the other runs task 1, records
  // its failure, and only then pops task 2, which lets task 0 fail too.
  // Task 0's failure lands last, yet it is the one wait() rethrows.
  std::exception_ptr rethrown;
  {
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    pool.submit([&release] {
      while (!release.load()) std::this_thread::yield();
      throw std::runtime_error("task 0");
    });
    pool.submit([] { throw std::runtime_error("task 1"); });
    pool.submit([&release] { release.store(true); });
    try {
      pool.wait();
    } catch (...) {
      rethrown = std::current_exception();
    }
    // The error state was reset with the rethrow.
    pool.submit([] {});
    EXPECT_NO_THROW(pool.wait());
  }
  // Read the failure only once the workers have joined: the one that
  // threw it may still be dropping its reference, through a count kept
  // in the uninstrumented standard library that TSan cannot see.
  ASSERT_TRUE(rethrown) << "wait() swallowed both failures";
  try {
    std::rethrow_exception(rethrown);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  }
}

TEST(ThreadPool, SubmitWaitCollectsResults) {
  ThreadPool pool(3);
  std::vector<int> results(6, 0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    pool.submit([&results, i] { results[i] = static_cast<int>(i) * 2; });
  }
  pool.wait();
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], static_cast<int>(i) * 2);
  EXPECT_THROW(pool.submit(nullptr), Error);
}

TEST(ThreadPool, ResolveSemantics) {
  EXPECT_EQ(ThreadPool::resolve(0), ThreadPool::hardware_threads());
  EXPECT_EQ(ThreadPool::resolve(-3), ThreadPool::hardware_threads());
  EXPECT_EQ(ThreadPool::resolve(1), 1);
  EXPECT_EQ(ThreadPool::resolve(12), 12);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, DestructionWithWorkQueuedDrainsEverything) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    std::atomic<bool> gate{false};
    pool.submit([&] {
      while (!gate.load()) std::this_thread::yield();
      ran.fetch_add(1);
    });
    for (int i = 0; i < 20; ++i) pool.submit([&] { ran.fetch_add(1); });
    gate.store(true);
    // No wait(): the destructor must drain the queue before joining.
  }
  EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPool, ExceptionFromQueuedTaskAfterShutdownBeginsIsSwallowed) {
  // A task still queued when the destructor runs throws while the pool
  // is draining. The exception must be captured (never rethrown from a
  // destructor, never std::terminate) and the healthy tasks around it
  // still run.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    std::atomic<bool> gate{false};
    pool.submit([&] {
      while (!gate.load()) std::this_thread::yield();
    });
    pool.submit([&]() -> void { throw std::runtime_error("late failure during drain"); });
    pool.submit([&] { ran.fetch_add(1); });
    gate.store(true);
  }
  EXPECT_EQ(ran.load(), 1);
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
