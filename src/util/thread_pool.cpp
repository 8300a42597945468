#include "util/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace bvl {
namespace {

/// The pool the current thread works for, if it is a worker.
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int threads) : width_(resolve(threads)) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::grow(std::size_t chunks) {
  const std::size_t want =
      std::min(static_cast<std::size_t>(width_), running_ + queue_.size() + chunks);
  while (workers_.size() < want) {
    try {
      workers_.emplace_back([this] { worker_loop(); });
    } catch (const std::exception& e) {
      // The workers already started stay and serve the other callers;
      // this call has queued nothing yet.
      throw Error("ThreadPool: cannot start worker " + std::to_string(workers_.size() + 1) +
                  " of " + std::to_string(want) + " (" + e.what() + ")");
    }
  }
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and nothing left to run
    const Chunk c = queue_.front();
    queue_.pop_front();
    ++running_;
    lock.unlock();
    std::exception_ptr err;
    try {
      for (std::size_t i = c.begin; i < c.end; ++i) (*c.batch->fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    --running_;
    Batch& b = *c.batch;
    if (err && (!b.error || c.begin < b.error_begin)) {
      b.error = err;
      b.error_begin = c.begin;
    }
    // The caller may return as soon as it sees pending reach 0, so
    // this is the last touch of its batch.
    if (--b.pending == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (on_worker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // A few chunks per worker balances load without a queue op per index.
  const std::size_t target_chunks = static_cast<std::size_t>(width_) * 4;
  const std::size_t chunk = std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
  Batch batch;
  batch.fn = &fn;
  batch.pending = (n + chunk - 1) / chunk;
  std::unique_lock<std::mutex> lock(mu_);
  grow(batch.pending);
  for (std::size_t begin = 0; begin < n; begin += chunk)
    queue_.push_back(Chunk{&batch, begin, std::min(n, begin + chunk)});
  lock.unlock();
  work_cv_.notify_all();
  lock.lock();
  done_cv_.wait(lock, [&batch] { return batch.pending == 0; });
  if (batch.error) {
    std::exception_ptr e = batch.error;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

bool ThreadPool::on_worker() const { return tls_pool == this; }

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
