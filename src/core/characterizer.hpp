// Characterizer: the library's main entry point. Runs a workload on
// the MapReduce engine once per (input size, block size) point,
// caches the machine-independent trace, and prices it on any server /
// frequency / slot count — the workflow behind every figure and table
// in the paper's evaluation.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "arch/server_config.hpp"
#include "core/char_cache.hpp"
#include "mapreduce/engine.hpp"
#include "perf/perf_model.hpp"
#include "perf/pricer.hpp"
#include "sim/network/nic_preset.hpp"
#include "workloads/registry.hpp"

namespace bvl::core {

/// One experiment point. Defaults match the paper's reference
/// configuration (512 MB blocks, 1.8 GHz, mappers = 8).
struct RunSpec {
  wl::WorkloadId workload = wl::WorkloadId::kWordCount;
  Bytes input_size = 1 * GB;   ///< per node
  Bytes block_size = 512 * MB;
  Hertz freq = 1.8 * GHz;
  /// Task slots per node. 4 by default (the configuration under
  /// which the paper's block-size optima reproduce: 1 GB / 256 MB
  /// blocks fills the slots exactly); Table-3 sweeps set it to the
  /// core count explicitly.
  int mappers = 4;
  int num_reducers = -1;       ///< -1: workload default
  Bytes spill_buffer = 100 * MB;  ///< io.sort.mb (JobConfig's default)
  bool use_combiner = true;

  /// Fault/recovery plan the engine runs under (mapreduce/fault.hpp).
  /// Default-inactive. An active plan makes every priced surface —
  /// and thus schedule_measured's ED^xP argmin — straggler-aware:
  /// wasted attempts, wave stretch and backoff are charged on either
  /// server.
  mr::FaultPlan fault;
};

class Characterizer {
 public:
  /// `target_exec_bytes` bounds how much data the engine really
  /// executes per trace (sim_scale = input / target, floored at 1).
  explicit Characterizer(hdfs::DfsConfig dfs = {}, perf::ClusterConfig cluster = {},
                         Bytes target_exec_bytes = 16 * MB, std::uint64_t seed = 42);

  /// Machine-independent trace for the spec (cached). Thread-safe:
  /// concurrent callers may characterize different specs in parallel,
  /// and a caller whose key is already being loaded or characterized
  /// waits for that first caller instead of running the engine again.
  /// If the first caller throws, every waiter gets its exception and
  /// the key is forgotten, so a later call retries.
  const mr::JobTrace& trace(const RunSpec& spec);

  /// Brings every spec's trace into memory. Memory and disk hits load
  /// inline; the specs that need the engine are characterized at most
  /// min(kMaxInFlight, `threads`) at a time (0 = hardware concurrency),
  /// by that many driver threads whose engine runs share the pool, so
  /// no more tasks run than the pool is wide. With one at a time, or
  /// when called from a pool task, they run inline on the caller. No
  /// thread starts when nothing needs the engine. The figure registry
  /// and the rack replays pre-characterize this way.
  void prefetch(const std::vector<RunSpec>& specs, int threads);

  /// Characterizations one prefetch() keeps in flight at most. Each
  /// holds its map outputs until its reduce wave ends, so memory grows
  /// with this count even though the pool bounds the running tasks.
  static constexpr int kMaxInFlight = 2;

  /// Runs fn(i) for every i in [0, n) on the pool (inline at width 1,
  /// or when called from a pool task). A task may call trace(): a
  /// missing trace is then characterized inline on that worker.
  void run_on_pool(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// How many times this characterizer has run the engine, failed runs
  /// included. Memory and disk hits do not count.
  int engine_runs() const { return engine_runs_.load(); }

  /// Prices the spec's trace on `server` at the spec's operating
  /// point with the closed form — the pricer every figure and golden
  /// is pinned against.
  perf::RunResult run(const RunSpec& spec, const arch::ServerConfig& server);

  /// Cached event pricer for `server` with its NIC demands priced
  /// under an endpoint preset (sim/network/nic_preset.hpp): per-task
  /// nic_svc_s and the net term use the preset's achievable rate.
  /// Pricers are stateless after construction, so references stay
  /// valid and shareable; cluster_sim needs the job_sim() surface.
  const perf::EventPricer& event_pricer(const arch::ServerConfig& server,
                                        sim::NicPresetId nic);

  /// Convenience for the ubiquitous Atom-vs-Xeon pair.
  std::pair<perf::RunResult, perf::RunResult> run_pair(const RunSpec& spec);

  /// Width of the one worker pool every engine run and run_on_pool()
  /// call of this characterizer share (JobConfig::exec_threads
  /// semantics: 0 = hardware concurrency, 1 = serial, no pool). A
  /// setup-time call. Thread count never changes trace contents, so it
  /// is not part of the cache key.
  void set_exec_threads(int n) {
    exec_threads_ = n;
    pool_.reset();
  }
  int exec_threads() const { return exec_threads_; }

  /// Attaches a persistent on-disk trace cache rooted at `dir`
  /// (created if absent; empty string detaches). trace() then consults
  /// the disk between the in-memory miss and the engine run and stores
  /// fresh characterizations back, so repeated runs — and concurrent
  /// processes sharing the directory — skip the engine entirely. Disk
  /// and memory share one key: the workload plus mr::trace_key of
  /// config_for(spec); corrupt or mismatched files silently fall back
  /// to re-characterization (see char_cache.hpp). Like set_exec_threads,
  /// a setup-time call: not synchronized against in-flight trace().
  void set_cache_dir(const std::string& dir);
  std::string cache_dir() const { return disk_ ? disk_->dir() : std::string(); }

  const hdfs::DfsConfig& dfs() const { return dfs_; }
  const perf::ClusterConfig& cluster_config() const { return cluster_; }

 private:
  /// The engine inputs of a spec: the only place a RunSpec becomes a
  /// JobConfig, so the trace caches are keyed on exactly what the
  /// engine runs (mr::trace_key).
  mr::JobConfig config_for(const RunSpec& spec) const;

  /// A trace read from disk, or else characterized by the engine.
  mr::JobTrace load_or_characterize(const RunSpec& spec, const mr::JobConfig& cfg,
                                    const std::string& key);

  /// The trace stored on disk under `key`, if any.
  std::optional<mr::JobTrace> load_from_disk(const RunSpec& spec, const std::string& key) const;

  /// True when the spec's trace is in memory, or now is after a disk
  /// hit. Never runs the engine; a key in flight reads as missing.
  bool load_cached(const RunSpec& spec);

  /// The shared pool; nullptr at width 1. It lives while some engine
  /// run or run_on_pool() call holds it and is made again after: a pool
  /// kept across runs that go one at a time (service_rack's set-up, say)
  /// left its workers' allocator arenas holding 10–25 % more peak RSS.
  std::shared_ptr<ThreadPool> acquire_pool();
  /// True on a worker of the shared pool.
  bool on_pool_worker();

  hdfs::DfsConfig dfs_;
  perf::ClusterConfig cluster_;
  Bytes target_exec_;
  std::uint64_t seed_;
  int exec_threads_ = 0;
  std::mutex pool_mu_;  ///< guards pool_
  std::weak_ptr<ThreadPool> pool_;
  std::unique_ptr<CharCache> disk_;  ///< optional persistent trace cache
  std::mutex mu_;  ///< guards the trace and pricer caches (node refs stay stable)
  std::map<std::string, mr::JobTrace> cache_;
  /// Keys some caller is loading or characterizing right now. Later
  /// callers of the key wait on the future; the entry is erased when
  /// the first caller stores the trace or throws.
  std::map<std::string, std::shared_future<const mr::JobTrace*>> in_flight_;
  std::atomic<int> engine_runs_{0};
  /// Pricer caches keyed by the server's name (and the NIC preset):
  /// a hit also needs the pricer's server to equal the caller's in
  /// full, so a modified copy that keeps a preset's name gets its own.
  std::multimap<std::string, std::unique_ptr<perf::PerfModel>> models_;
  std::multimap<std::pair<std::string, sim::NicPresetId>, std::unique_ptr<perf::EventPricer>>
      event_pricers_;
};

}  // namespace bvl::core
