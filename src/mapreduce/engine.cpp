#include "mapreduce/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "hdfs/dfs.hpp"
#include "mapreduce/map_task.hpp"
#include "mapreduce/merge.hpp"
#include "mapreduce/reduce_task.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bvl::mr {

namespace {

/// log-ratio correction for comparator counts: sorting N records in
/// buffer-sized chunks costs ~N log2(B); at executed scale the chunk
/// is B/s, so scaled comparisons need the log2(B)/log2(B/s) factor.
double log_adjust_for(Bytes logical_buffer, Bytes exec_buffer) {
  double lo = std::log2(std::max<double>(4.0, static_cast<double>(exec_buffer)));
  double hi = std::log2(std::max<double>(4.0, static_cast<double>(logical_buffer)));
  return std::max(1.0, hi / lo);
}

std::uint64_t task_seed(std::uint64_t job_seed, std::uint64_t block_id) {
  // SplitMix64-style mix so adjacent blocks decorrelate.
  std::uint64_t z = job_seed + 0x9e3779b97f4a7c15ULL * (block_id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

JobTrace Engine::run(JobDefinition& def, const JobConfig& cfg,
                     const std::function<void(const KV&)>& output_sink) const {
  require(cfg.input_size > 0, "Engine::run: zero input size");
  require(cfg.block_size > 0, "Engine::run: zero block size");
  require(cfg.sim_scale >= 1.0, "Engine::run: sim_scale must be >= 1");
  require(cfg.spill_buffer > 0, "Engine::run: zero spill buffer");
  require(cfg.exec_threads >= 0, "Engine::run: negative exec_threads");

  JobTrace trace;
  trace.workload = def.name();
  trace.config = cfg;

  // Fault machinery (mapreduce/fault.hpp). An inactive plan (the
  // default) keeps every fault branch below dead: each task runs its
  // single attempt exactly as before and all TaskTrace fault fields
  // stay at their neutral defaults, so the trace is bit-identical to
  // the pre-fault engine (tests/golden enforces this). With an active
  // plan, failed attempts really re-execute the task — the work is
  // done and discarded, like a died Hadoop attempt — and the committed
  // attempt is the final execution (identical output by task
  // determinism, which is also what makes speculation safe).
  const FaultSchedule fsched(cfg.fault);
  const bool faults = fsched.active();

  const bool map_only = cfg.num_reducers == 0 || def.make_reducer() == nullptr;
  int reducers = map_only ? 0 : (cfg.num_reducers > 0 ? cfg.num_reducers : def.default_reducers());
  trace.config.num_reducers = reducers;
  trace.config.compress_map_output = cfg.compress_map_output || def.compress_map_output();

  auto blocks = hdfs::plan_blocks(cfg.input_size, cfg.block_size);

  // Executor pool: the shared one, or one of this run's own made on
  // the first multi-task phase and kept for the reduce wave. Tasks are
  // pure functions of their index (the JobDefinition is only read), so
  // executing them concurrently and merging the per-task results in
  // task-index order below yields a trace that is bit-identical at any
  // width. The trace records the requested width; a pool starts only
  // the workers a wave's chunks need.
  const int exec_threads = ThreadPool::resolve(cfg.exec_threads);
  trace.exec_threads_used = exec_threads;
  std::unique_ptr<ThreadPool> own_pool;
  auto run_tasks = [&](std::size_t n, const std::function<void(std::size_t)>& task) {
    if (exec_threads > 1 && n > 1) {
      ThreadPool* pool = pool_;
      if (pool == nullptr) {
        if (!own_pool) own_pool = std::make_unique<ThreadPool>(exec_threads);
        pool = own_pool.get();
      }
      pool->parallel_for(n, task);
    } else {
      for (std::size_t i = 0; i < n; ++i) task(i);
    }
  };

  Bytes exec_buffer =
      std::max<Bytes>(kMinExecBuffer,
                      static_cast<Bytes>(static_cast<double>(cfg.spill_buffer) / cfg.sim_scale));
  double log_adj = log_adjust_for(cfg.spill_buffer, exec_buffer);

  // Pre-job preparation (TeraSort sampling). Executed at sample scale;
  // its work is small and charged unscaled to the setup phase.
  {
    Bytes sample_bytes = std::max<Bytes>(
        kMinExecSplit,
        static_cast<Bytes>(static_cast<double>(std::min(cfg.block_size, cfg.input_size)) /
                           cfg.sim_scale));
    def.prepare(sample_bytes, task_seed(cfg.seed, 0xABCDEF), trace.setup);
  }

  // ---- Map phase ----
  const bool has_combiner = cfg.use_combiner && def.make_combiner() != nullptr;
  // Sealed map-output runs. These arenas back the shuffle's RunView
  // segments, so they must stay alive until the reduce phase is done.
  std::vector<ArenaRun> map_outputs;
  map_outputs.reserve(blocks.size());
  double total_exec_input = 0;
  double total_logical_input = 0;

  // Execute every map task concurrently; each worker touches only its
  // own result slot. The trace-facing bookkeeping below runs serially
  // in block order so counters, sink calls and saturation flags are
  // merged deterministically.
  std::vector<MapTaskResult> map_results(blocks.size());
  std::vector<TaskFaultLog> map_logs(blocks.size());
  run_tasks(blocks.size(), [&](std::size_t i) {
    const auto& blk = blocks[i];
    Bytes exec_bytes = std::max<Bytes>(
        kMinExecSplit, static_cast<Bytes>(static_cast<double>(blk.length) / cfg.sim_scale));
    // Bounded retry: walk the attempt outcomes (throws when the
    // budget is exhausted), then execute one real run per attempt on
    // the same split/seed — earlier runs are the died attempts' wasted
    // work, the last one is committed.
    if (faults) map_logs[i] = fsched.run_attempts(TaskPhase::kMap, i);
    for (int a = 0; a < map_logs[i].attempts; ++a) {
      map_results[i] = run_map_task(def, blk.id, exec_bytes, exec_buffer, cfg.use_combiner,
                                    task_seed(cfg.seed, blk.id));
    }
  });
  if (faults) fsched.resolve_speculation(TaskPhase::kMap, map_logs);

  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const auto& blk = blocks[i];
    MapTaskResult& r = map_results[i];

    // Map-side partitioning cost (one hash per surviving output pair).
    if (!map_only) r.counters.hash_ops += static_cast<double>(r.output.size());

    // Map-only jobs write their merged output straight to HDFS. When
    // the task spilled more than once, the collector's final merge
    // pass already wrote the merged file (charged in close()), and
    // committing it to HDFS is a rename — don't charge the volume
    // twice.
    if (map_only) {
      double out_bytes = run_bytes(r.output);
      r.counters.output_records += static_cast<double>(r.output.size());
      r.counters.output_bytes += out_bytes;
      if (r.counters.spills <= 1) r.counters.disk_write_bytes += out_bytes;
      if (output_sink) {
        for (std::size_t k = 0; k < r.output.size(); ++k)
          output_sink(KV{std::string(r.output.key(k)), std::string(r.output.value(k))});
      }
    }

    double exec_in = std::max(1.0, r.counters.input_bytes);
    double task_scale = std::max(1.0, static_cast<double>(blk.length) / exec_in);
    total_exec_input += exec_in;
    total_logical_input += static_cast<double>(blk.length);

    // Combiner saturation: when the combiner collapses the emit
    // stream several-fold at executed scale, the key space is
    // exhausted and a larger (logical) window collapses to the same
    // combined output — post-combine volumes must not scale.
    bool saturated = has_combiner &&
                     r.counters.emits >= 3.0 * std::max(1.0, static_cast<double>(r.output.size()));
    trace.combiner_saturated = trace.combiner_saturated || saturated;

    TaskTrace t;
    t.counters = r.counters.scaled(task_scale, log_adj, saturated);
    t.logical_bytes = blk.length;
    const TaskFaultLog& fl = map_logs[i];
    t.attempts = fl.attempts;
    t.speculated = fl.speculated;
    t.backoff_s = fl.backoff_s;
    t.time_factor = fl.time_factor;
    if (fl.wasted_fraction > 0) t.wasted = t.counters.scaled_uniform(fl.wasted_fraction);
    trace.map_tasks.push_back(std::move(t));
    if (!map_only) map_outputs.push_back(std::move(r.output));
  }

  // ---- Shuffle + reduce phase ----
  if (!map_only) {
    double global_scale = std::max(1.0, total_logical_input / std::max(1.0, total_exec_input));

    // Route each map output pair to its reduce partition: only the
    // 16-byte refs move, each partition's segment stays a sorted view
    // into the producing map task's arena. A routed output's own index
    // is dead, so it is freed at once; the arena stays for the views.
    std::vector<std::vector<RunView>> segments(static_cast<std::size_t>(reducers));
    for (auto& seg : segments) {
      seg.resize(map_outputs.size());
      for (std::size_t m = 0; m < map_outputs.size(); ++m) seg[m].data = &map_outputs[m].data;
    }
    for (std::size_t m = 0; m < map_outputs.size(); ++m) {
      for (const KVRef& ref : map_outputs[m].refs) {
        int p = def.partition(map_outputs[m].data.key(ref), reducers);
        require(p >= 0 && p < reducers, "Engine::run: partition out of range");
        segments[static_cast<std::size_t>(p)][m].refs.push_back(ref);
      }
      std::vector<KVRef>().swap(map_outputs[m].refs);
    }

    // A saturated combiner means the reduce side sees the same data
    // at any scale: its counters are already logical.
    double reduce_scale = trace.combiner_saturated ? 1.0 : global_scale;
    double reduce_adj = trace.combiner_saturated ? 1.0 : log_adj;

    // Reduce tasks are independent once the segments are routed; run
    // them on the same pool, then commit results in partition order.
    std::vector<ReduceTaskResult> reduce_results(static_cast<std::size_t>(reducers));
    std::vector<TaskFaultLog> reduce_logs(static_cast<std::size_t>(reducers));
    run_tasks(static_cast<std::size_t>(reducers), [&](std::size_t r) {
      if (faults) reduce_logs[r] = fsched.run_attempts(TaskPhase::kReduce, r);
      // Non-final attempts re-fetch a copy of the shuffled segments
      // (a restarted reducer re-pulls its map outputs); the committed
      // attempt consumes them.
      for (int a = 0; a + 1 < reduce_logs[r].attempts; ++a) {
        auto refetched = segments[r];
        reduce_results[r] = run_reduce_task(def, std::move(refetched));
      }
      reduce_results[r] = run_reduce_task(def, std::move(segments[r]));
    });
    if (faults) fsched.resolve_speculation(TaskPhase::kReduce, reduce_logs);

    for (int r = 0; r < reducers; ++r) {
      ReduceTaskResult& res = reduce_results[static_cast<std::size_t>(r)];
      if (output_sink) {
        for (std::size_t k = 0; k < res.output.size(); ++k)
          output_sink(KV{std::string(res.output.key(k)), std::string(res.output.value(k))});
      }
      TaskTrace t;
      t.counters = res.counters.scaled(reduce_scale, reduce_adj);
      t.logical_bytes = static_cast<Bytes>(t.counters.shuffle_bytes);
      const TaskFaultLog& fl = reduce_logs[static_cast<std::size_t>(r)];
      t.attempts = fl.attempts;
      t.speculated = fl.speculated;
      t.backoff_s = fl.backoff_s;
      t.time_factor = fl.time_factor;
      if (fl.wasted_fraction > 0) t.wasted = t.counters.scaled_uniform(fl.wasted_fraction);
      trace.reduce_tasks.push_back(std::move(t));
    }
  }

  // Cleanup bookkeeping: committing output, deleting temp spills. The
  // wall-clock cost is modeled in perf from DfsConfig; here we only
  // note the structural seeks.
  trace.cleanup.disk_seeks = static_cast<double>(trace.map_tasks.size() + trace.reduce_tasks.size());
  return trace;
}

}  // namespace bvl::mr
