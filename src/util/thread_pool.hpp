// Fixed-size worker pool with a chunked work queue, used by the
// MapReduce engine to execute task waves, by the characterizer to
// prefetch traces and by the figure builders to fan out rack replays.
//
// Design constraints (see DESIGN.md "Threading model"):
//  * Workers never see partial work items: submit() enqueues whole
//    closures; parallel_for() enqueues contiguous index chunks so a
//    queue pop amortizes synchronization over several tasks.
//  * Exceptions thrown by tasks are captured and rethrown from wait()
//    — the one with the lowest submission index wins, so failure
//    behaviour is deterministic regardless of worker interleaving.
//  * The pool is reusable: wait() leaves the workers parked for the
//    next batch (the engine runs the map wave and the reduce wave on
//    one pool).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace bvl {

class ThreadPool {
 public:
  /// Spawns `threads` workers (resolved via resolve(), so 0 means one
  /// per hardware thread). Throws bvl::Error when a worker cannot be
  /// started, after joining the ones that were. Callers size a pool to
  /// at most its task count: workers beyond it would only idle.
  explicit ThreadPool(int threads);

  /// Destruction with work still queued is safe: the workers drain
  /// every remaining task (capturing, not rethrowing, any exception a
  /// late task throws) and then join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Single producer: call from the owning thread
  /// only, never from inside a task.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task finished; then rethrows the
  /// captured exception of the earliest-submitted failing task, if
  /// any, and resets the error state so the pool can be reused.
  void wait();

  /// Runs fn(i) for every i in [0, n), chunking the index space into
  /// contiguous ranges (several chunks per worker for load balancing)
  /// and blocking until done. fn receives identical arguments
  /// regardless of pool size, so any per-index output is
  /// thread-count-invariant. Rethrows like wait().
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static int hardware_threads();

  /// Resolves a thread-count knob: 0 (auto) -> hardware_threads();
  /// anything else is clamped to >= 1.
  static int resolve(int requested);

 private:
  void worker_loop();
  void stop_and_join();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue non-empty or stopping
  std::condition_variable done_cv_;  ///< wait(): all submitted work drained
  std::deque<std::pair<std::size_t, std::function<void()>>> queue_;
  std::size_t next_index_ = 0;  ///< submission order, for deterministic rethrow
  std::size_t in_flight_ = 0;   ///< queued + currently running tasks
  bool stop_ = false;
  std::exception_ptr error_;
  std::size_t error_index_ = 0;
  std::vector<std::thread> workers_;
};

/// One-shot convenience: parallel_for on a temporary pool of
/// min(resolve(threads), n) workers when that is more than one,
/// otherwise inline on the caller (the serial path — exceptions then
/// propagate directly).
void parallel_for(int threads, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace bvl
