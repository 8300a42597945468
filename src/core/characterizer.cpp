#include "core/characterizer.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bvl::core {
namespace {

// Cached pricer for (server, key), made on a miss. The key only
// narrows the search: a hit needs the whole server to match.
template <class Pricers, class Key, class Make>
auto& find_or_make(Pricers& pricers, const arch::ServerConfig& server, const Key& key, Make make) {
  auto [lo, hi] = pricers.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second->server() == server) return *it->second;
  }
  return *pricers.emplace(key, make())->second;
}

// The key both trace caches share: the workload plus the engine inputs.
std::string cache_key(wl::WorkloadId workload, const mr::JobConfig& cfg) {
  return "wl=" + std::to_string(static_cast<int>(workload)) + " " + mr::trace_key(cfg);
}

}  // namespace

Characterizer::Characterizer(hdfs::DfsConfig dfs, perf::ClusterConfig cluster,
                             Bytes target_exec_bytes, std::uint64_t seed)
    : dfs_(dfs), cluster_(cluster), target_exec_(target_exec_bytes), seed_(seed) {
  require(target_exec_ >= 64 * KB, "Characterizer: execution target too small");
}

mr::JobConfig Characterizer::config_for(const RunSpec& spec) const {
  mr::JobConfig cfg;
  cfg.input_size = spec.input_size;
  cfg.block_size = spec.block_size;
  cfg.num_reducers = spec.num_reducers;
  cfg.spill_buffer = spec.spill_buffer;
  cfg.use_combiner = spec.use_combiner;
  cfg.sim_scale = std::max(1.0, static_cast<double>(spec.input_size) /
                                    static_cast<double>(target_exec_));
  cfg.seed = seed_;
  cfg.exec_threads = exec_threads_;
  cfg.fault = spec.fault;
  return cfg;
}

void Characterizer::set_cache_dir(const std::string& dir) {
  if (dir.empty()) {
    disk_.reset();
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // failure degrades to a miss-only cache
  disk_ = std::make_unique<CharCache>(dir);
}

const mr::JobTrace& Characterizer::trace(const RunSpec& spec) {
  const mr::JobConfig cfg = config_for(spec);
  const std::string key = cache_key(spec.workload, cfg);
  std::unique_lock<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  auto pending = in_flight_.find(key);
  if (pending != in_flight_.end()) {
    // Someone is producing this trace: wait for it rather than run the
    // same engine spec twice. get() rethrows their exception.
    std::shared_future<const mr::JobTrace*> first = pending->second;
    lock.unlock();
    return *first.get();
  }
  std::promise<const mr::JobTrace*> done;
  in_flight_.emplace(key, done.get_future().share());
  lock.unlock();

  // Load or characterize outside the lock so distinct specs run in
  // parallel.
  try {
    mr::JobTrace t = load_or_characterize(spec, cfg, key);
    std::lock_guard<std::mutex> guard(mu_);
    // std::map node stability keeps returned references valid forever.
    const mr::JobTrace& stored = cache_.emplace(key, std::move(t)).first->second;
    in_flight_.erase(key);
    done.set_value(&stored);
    return stored;
  } catch (...) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      in_flight_.erase(key);
    }
    done.set_exception(std::current_exception());
    throw;
  }
}

mr::JobTrace Characterizer::load_or_characterize(const RunSpec& spec, const mr::JobConfig& cfg,
                                                 const std::string& key) {
  if (auto cached = load_from_disk(spec, key)) return std::move(*cached);

  auto def = wl::make_workload(spec.workload);
  engine_runs_.fetch_add(1);
  const std::shared_ptr<ThreadPool> pool = acquire_pool();
  mr::JobTrace t = mr::Engine(pool.get()).run(*def, cfg);

  // Best-effort publish for future processes; failure just means the
  // next run re-characterizes.
  if (disk_) disk_->store(key, t);
  return t;
}

std::optional<mr::JobTrace> Characterizer::load_from_disk(const RunSpec& spec,
                                                          const std::string& key) const {
  if (!disk_) return std::nullopt;
  std::optional<mr::JobTrace> cached = disk_->load(key);
  // The serialized form excludes the FaultPlan (an input, not an
  // output); reattach the spec's so the cached trace's config is
  // indistinguishable from a fresh characterization's.
  if (cached) cached->config.fault = spec.fault;
  return cached;
}

bool Characterizer::load_cached(const RunSpec& spec) {
  const std::string key = cache_key(spec.workload, config_for(spec));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cache_.count(key) != 0) return true;
    if (in_flight_.count(key) != 0) return false;
  }
  std::optional<mr::JobTrace> t = load_from_disk(spec, key);
  if (!t) return false;
  // A caller of trace() racing this load keeps whichever identical
  // copy was stored first.
  std::lock_guard<std::mutex> lock(mu_);
  cache_.emplace(key, std::move(*t));
  return true;
}

void Characterizer::prefetch(const std::vector<RunSpec>& specs, int threads) {
  std::vector<const RunSpec*> cold;
  for (const RunSpec& spec : specs) {
    if (!load_cached(spec)) cold.push_back(&spec);
  }
  const std::size_t drivers = std::min(
      {static_cast<std::size_t>(kMaxInFlight),
       static_cast<std::size_t>(ThreadPool::resolve(threads)), cold.size()});
  if (drivers <= 1 || on_pool_worker()) {
    for (const RunSpec* spec : cold) trace(*spec);
    return;
  }
  // Each driver takes the next cold spec as soon as its last one is
  // stored. A failure does not stop the others; the lowest-index one
  // is rethrown once both drivers are done.
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  std::size_t error_at = cold.size();
  bvl::parallel_for(static_cast<int>(drivers), drivers, [&](std::size_t) {
    for (std::size_t i; (i = next.fetch_add(1)) < cold.size();) {
      try {
        trace(*cold[i]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < error_at) {
          error = std::current_exception();
          error_at = i;
        }
      }
    }
  });
  if (error) std::rethrow_exception(error);
}

void Characterizer::run_on_pool(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::shared_ptr<ThreadPool> p = n > 1 ? acquire_pool() : nullptr;
  if (p == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  p->parallel_for(n, fn);
}

std::shared_ptr<ThreadPool> Characterizer::acquire_pool() {
  const int width = ThreadPool::resolve(exec_threads_);
  if (width <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(pool_mu_);
  std::shared_ptr<ThreadPool> pool = pool_.lock();
  if (!pool) {
    pool = std::make_shared<ThreadPool>(width);
    pool_ = pool;
  }
  return pool;
}

bool Characterizer::on_pool_worker() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  const std::shared_ptr<ThreadPool> pool = pool_.lock();
  return pool != nullptr && pool->on_worker();
}

const perf::EventPricer& Characterizer::event_pricer(const arch::ServerConfig& server,
                                                     sim::NicPresetId nic) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_make(event_pricers_, server, std::make_pair(server.name, nic), [&] {
    return std::make_unique<perf::EventPricer>(server, dfs_, cluster_, nic);
  });
}

perf::RunResult Characterizer::run(const RunSpec& spec, const arch::ServerConfig& server) {
  const mr::JobTrace& t = trace(spec);
  std::unique_lock<std::mutex> lock(mu_);
  const perf::PerfModel& model = find_or_make(models_, server, server.name, [&] {
    return std::make_unique<perf::PerfModel>(server, dfs_, cluster_);
  });
  lock.unlock();
  // price() is const/stateless; the cached model is shared.
  return model.price(t, spec.freq, spec.mappers);
}

std::pair<perf::RunResult, perf::RunResult> Characterizer::run_pair(const RunSpec& spec) {
  return {run(spec, arch::xeon_e5_2420()), run(spec, arch::atom_c2758())};
}

}  // namespace bvl::core
