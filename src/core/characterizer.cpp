#include "core/characterizer.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "util/error.hpp"

namespace bvl::core {

Characterizer::Characterizer(hdfs::DfsConfig dfs, perf::ClusterConfig cluster,
                             Bytes target_exec_bytes, std::uint64_t seed)
    : dfs_(dfs), cluster_(cluster), target_exec_(target_exec_bytes), seed_(seed) {
  require(target_exec_ >= 64 * KB, "Characterizer: execution target too small");
}

Characterizer::Key Characterizer::key_of(const RunSpec& spec) const {
  return {static_cast<int>(spec.workload), spec.input_size, spec.block_size, spec.num_reducers,
          spec.use_combiner, spec.fault.active() ? spec.fault.cache_key() : 0};
}

std::string Characterizer::disk_key(const RunSpec& spec) const {
  // Mirrors key_of field for field, plus the engine salt (execution
  // target, seed) the in-memory key can leave implicit because it
  // never outlives the instance. Human-readable on purpose: the string
  // is embedded verbatim in the cache file as the collision guard.
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "wl=%d in=%llu blk=%llu red=%d comb=%d fault=%llu target=%llu seed=%llu",
                static_cast<int>(spec.workload),
                static_cast<unsigned long long>(spec.input_size),
                static_cast<unsigned long long>(spec.block_size), spec.num_reducers,
                spec.use_combiner ? 1 : 0,
                static_cast<unsigned long long>(spec.fault.active() ? spec.fault.cache_key() : 0),
                static_cast<unsigned long long>(target_exec_),
                static_cast<unsigned long long>(seed_));
  return buf;
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
  Key k = key_of(spec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(k);
    if (it != cache_.end()) return it->second;
  }

  std::string dkey;
  if (disk_) {
    dkey = disk_key(spec);
    if (auto cached = disk_->load(dkey)) {
      // The serialized form excludes the FaultPlan (an input, not an
      // output); reattach the spec's so the cached trace's config is
      // indistinguishable from a fresh characterization's.
      cached->config.fault = spec.fault;
      std::lock_guard<std::mutex> lock(mu_);
      return cache_.emplace(k, std::move(*cached)).first->second;
    }
  }

  // Characterize outside the lock so distinct specs run in parallel.
  auto def = wl::make_workload(spec.workload);
  mr::JobConfig cfg;
  cfg.input_size = spec.input_size;
  cfg.block_size = spec.block_size;
  cfg.num_reducers = spec.num_reducers;
  cfg.use_combiner = spec.use_combiner;
  cfg.sim_scale = std::max(1.0, static_cast<double>(spec.input_size) /
                                    static_cast<double>(target_exec_));
  cfg.seed = seed_;
  cfg.exec_threads = exec_threads_;
  cfg.fault = spec.fault;
  mr::JobTrace t = engine_.run(*def, cfg);

  // Best-effort publish for future processes; failure just means the
  // next run re-characterizes.
  if (disk_) disk_->store(dkey, t);

  // Two threads racing on the same key computed identical traces
  // (engine determinism); keep whichever landed first. std::map node
  // stability keeps returned references valid forever.
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.emplace(k, std::move(t)).first->second;
}

const perf::Pricer& Characterizer::pricer(const arch::ServerConfig& server,
                                          perf::PricerKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_pair(server.name, static_cast<int>(kind));
  auto it = pricers_.find(key);
  if (it == pricers_.end()) {
    it = pricers_.emplace(key, perf::make_pricer(kind, server, dfs_, cluster_)).first;
  }
  return *it->second;
}

const perf::EventPricer& Characterizer::event_pricer(const arch::ServerConfig& server) {
  return static_cast<const perf::EventPricer&>(pricer(server, perf::PricerKind::kEvent));
}

const perf::EventPricer& Characterizer::event_pricer(const arch::ServerConfig& server,
                                                     sim::NicPresetId nic) {
  std::lock_guard<std::mutex> lock(mu_);
  // Packed alongside the kind so the identity preset (k1GbE == 0)
  // lands on the plain kEvent entry — default callers share one
  // pricer with the preset-aware path.
  auto key = std::make_pair(
      server.name, static_cast<int>(perf::PricerKind::kEvent) + 256 * static_cast<int>(nic));
  auto it = pricers_.find(key);
  if (it == pricers_.end()) {
    perf::EventOptions opts;
    opts.fabric.nic_preset = nic;
    it = pricers_
             .emplace(key, std::make_unique<perf::EventPricer>(server, dfs_, cluster_, opts))
             .first;
  }
  return static_cast<const perf::EventPricer&>(*it->second);
}

perf::RunResult Characterizer::run(const RunSpec& spec, const arch::ServerConfig& server) {
  return run(spec, server, perf::PricerKind::kAnalytic);
}

perf::RunResult Characterizer::run(const RunSpec& spec, const arch::ServerConfig& server,
                                   perf::PricerKind kind) {
  const mr::JobTrace& t = trace(spec);
  // price() is const/stateless; the cached pricer is shared.
  return pricer(server, kind).price(t, spec.freq, spec.mappers);
}

std::pair<perf::RunResult, perf::RunResult> Characterizer::run_pair(const RunSpec& spec) {
  return {run(spec, arch::xeon_e5_2420()), run(spec, arch::atom_c2758())};
}

}  // namespace bvl::core
