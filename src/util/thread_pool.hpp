// Worker pool with a chunked work queue, used by the MapReduce engine
// to execute task waves, by the characterizer to run every engine run
// and figure fan-out it drives, and by one-shot parallel loops.
//
// Design constraints (see DESIGN.md "Threading model"):
//  * Workers never see partial work items: parallel_for() enqueues
//    contiguous index chunks so a queue pop amortizes synchronization
//    over several tasks.
//  * Several threads may call parallel_for() at once. Each call waits
//    only for its own chunks and rethrows only their failure — the one
//    with the lowest index wins, so failure behaviour is deterministic
//    regardless of worker interleaving. At most size() tasks run at
//    once, however many calls are in flight.
//  * A task that calls parallel_for() on the pool it runs on runs the
//    loop inline: waiting for chunks that only its own (busy) workers
//    could run would deadlock.
//  * Workers start lazily, never more than the queued and running
//    chunks need: a pool as wide as --threads costs nothing until used.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bvl {

class ThreadPool {
 public:
  /// A pool of at most `threads` workers (resolved via resolve(), so 0
  /// means one per hardware thread). No worker starts before the
  /// first parallel_for().
  explicit ThreadPool(int threads);

  /// Stops and joins the workers. Callers must not be inside
  /// parallel_for() on another thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The most tasks this pool runs at once.
  int size() const { return width_; }

  /// Runs fn(i) for every i in [0, n), chunking the index space into
  /// contiguous ranges (several chunks per worker for load balancing)
  /// and blocking until this call's chunks are done. fn receives
  /// identical arguments regardless of pool size, so any per-index
  /// output is thread-count-invariant. Rethrows the exception of the
  /// lowest-index failing chunk, after every chunk finished. Throws
  /// bvl::Error, running nothing, when a needed worker cannot start.
  /// Safe to call from several threads at once.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True on one of this pool's worker threads.
  bool on_worker() const;

  /// std::thread::hardware_concurrency with a floor of 1.
  static int hardware_threads();

  /// Resolves a thread-count knob: 0 (auto) -> hardware_threads();
  /// anything else is clamped to >= 1.
  static int resolve(int requested);

 private:
  /// One parallel_for() call: its loop body, the chunks still queued
  /// or running, and the failure of its lowest-index failing chunk.
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t pending = 0;
    std::exception_ptr error;
    std::size_t error_begin = 0;
  };
  struct Chunk {
    Batch* batch;
    std::size_t begin, end;
  };

  void worker_loop();
  /// Starts workers until the queued and running chunks have one each
  /// (at most width_). Call with mu_ held.
  void grow(std::size_t chunks);

  const int width_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue non-empty or stopping
  std::condition_variable done_cv_;  ///< parallel_for(): some batch drained
  std::deque<Chunk> queue_;
  std::size_t running_ = 0;  ///< chunks a worker is executing
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// One-shot convenience: parallel_for on a temporary pool of
/// min(resolve(threads), n) workers when that is more than one,
/// otherwise inline on the caller (the serial path — exceptions then
/// propagate directly).
void parallel_for(int threads, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace bvl
