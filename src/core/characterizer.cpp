#include "core/characterizer.hpp"

#include <algorithm>
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
  if (disk_) {
    if (auto cached = disk_->load(key)) {
      // The serialized form excludes the FaultPlan (an input, not an
      // output); reattach the spec's so the cached trace's config is
      // indistinguishable from a fresh characterization's.
      cached->config.fault = spec.fault;
      return std::move(*cached);
    }
  }

  auto def = wl::make_workload(spec.workload);
  engine_runs_.fetch_add(1);
  mr::JobTrace t = engine_.run(*def, cfg);

  // Best-effort publish for future processes; failure just means the
  // next run re-characterizes.
  if (disk_) disk_->store(key, t);
  return t;
}

void Characterizer::prefetch(const std::vector<RunSpec>& specs, int threads) {
  std::vector<std::string> keys;
  keys.reserve(specs.size());
  for (const RunSpec& spec : specs) keys.push_back(cache_key(spec.workload, config_for(spec)));
  std::vector<const RunSpec*> missing;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (cache_.count(keys[i]) == 0) missing.push_back(&specs[i]);
    }
  }
  parallel_for(threads, missing.size(), [&](std::size_t i) { trace(*missing[i]); });
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
