#include "util/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace bvl {

ThreadPool::ThreadPool(int threads) {
  const int n = resolve(threads);
  try {
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
  } catch (const std::exception& e) {
    // A joinable std::thread left behind would std::terminate, even
    // with the exception caught: join the workers that did start.
    const std::size_t started = workers_.size();
    stop_and_join();
    throw Error("ThreadPool: cannot start worker " + std::to_string(started + 1) + " of " +
                std::to_string(n) + " (" + e.what() + ")");
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  require(task != nullptr, "ThreadPool::submit: null task");
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(next_index_++, std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::pair<std::size_t, std::function<void()>> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr err;
    try {
      item.second();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && (!error_ || item.first < error_index_)) {
        error_ = err;
        error_index_ = item.first;
      }
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // A few chunks per worker balances load without a queue op per index.
  std::size_t target_chunks = static_cast<std::size_t>(size()) * 4;
  std::size_t chunk = std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    std::size_t end = std::min(n, begin + chunk);
    submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }
  wait();
}

int ThreadPool::hardware_threads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int ThreadPool::resolve(int requested) {
  if (requested <= 0) return hardware_threads();
  return requested;
}

void parallel_for(int threads, std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t width = std::min(static_cast<std::size_t>(ThreadPool::resolve(threads)), n);
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(static_cast<int>(width));
  pool.parallel_for(n, fn);
}

}  // namespace bvl
