// google-benchmark microbenchmarks of the simulator itself: engine
// throughput per workload, cache-simulator access rate, pricing cost.
// These guard the harness's own performance (the figure benches rerun
// hundreds of priced sweeps).
//
// --threads N | --threads=N sets the engine executor width for the
// engine benchmarks (JobConfig::exec_threads; default 1 so runs are
// comparable across hosts). On a multi-core host
//   ./bench_engine_micro --threads 4
// should beat --threads 1 by ~min(4, tasks)x on BM_EngineRun while
// producing the identical JobTrace (the equivalence tests assert the
// latter).
//
// --json PATH | --json=PATH additionally writes the results as a JSON
// array of {"bench", "ns_per_op", "records_per_s"} objects —
// records_per_s is input records through the engine, 0 for benchmarks
// without a record notion. BENCH_engine.json at the repo root is the
// committed before/after ledger for this file's headline numbers; CI's
// perf-smoke job uploads a fresh run as an artifact for comparison.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "arch/cache_sim.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/merge.hpp"
#include "perf/perf_model.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace bvl;

int g_threads = 1;

void BM_EngineRun(benchmark::State& state) {
  auto id = wl::all_workloads()[static_cast<std::size_t>(state.range(0))];
  std::int64_t records = 0;
  for (auto _ : state) {
    auto def = wl::make_workload(id);
    mr::Engine engine;
    mr::JobConfig cfg;
    cfg.input_size = 8 * MB;
    cfg.block_size = 2 * MB;
    cfg.spill_buffer = 1 * MB;
    cfg.exec_threads = g_threads;
    mr::JobTrace t = engine.run(*def, cfg);
    benchmark::DoNotOptimize(t.map_total().emits);
    records += static_cast<std::int64_t>(t.map_total().input_records);
  }
  state.SetItemsProcessed(records);
  state.SetLabel(wl::long_name(id));
}
BENCHMARK(BM_EngineRun)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

// Wider job (16 map tasks) so executor scaling is visible past 4
// threads; this is the wall-clock target for the --threads speedup.
void BM_EngineRunWide(benchmark::State& state) {
  std::int64_t records = 0;
  for (auto _ : state) {
    auto def = wl::make_workload(wl::WorkloadId::kWordCount);
    mr::Engine engine;
    mr::JobConfig cfg;
    cfg.input_size = 32 * MB;
    cfg.block_size = 2 * MB;
    cfg.spill_buffer = 1 * MB;
    cfg.exec_threads = g_threads;
    mr::JobTrace t = engine.run(*def, cfg);
    benchmark::DoNotOptimize(t.map_total().emits);
    records += static_cast<std::int64_t>(t.map_total().input_records);
  }
  state.SetItemsProcessed(records);
  state.SetLabel("WordCount 16 tasks, exec_threads=" + std::to_string(g_threads));
}
BENCHMARK(BM_EngineRunWide)->Unit(benchmark::kMillisecond);

// Pure k-way merge throughput over pre-sorted arena runs: the loser
// tree's ns/record, isolated from map/reduce work. range(0) is the
// fan-in k.
void BM_MergeRuns(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int per_run = 4096;
  Pcg32 rng(42);
  std::vector<mr::ArenaRun> master(static_cast<std::size_t>(k));
  for (auto& run : master) {
    for (int i = 0; i < per_run; ++i) {
      char key[16];
      std::snprintf(key, sizeof key, "%08llx",
                    static_cast<unsigned long long>(rng.uniform(0, 1u << 24)));
      run.refs.push_back(run.data.append(key, "v"));
    }
    mr::WorkCounters c;
    counting_sort_run(run, c);
  }
  std::int64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<mr::ArenaRun> runs;
    runs.reserve(master.size());
    for (const auto& m : master) {
      mr::ArenaRun copy;
      copy.data.reserve(m.data.size());
      for (const auto& ref : m.refs) copy.refs.push_back(copy.data.append(m.data, ref));
      runs.push_back(std::move(copy));
    }
    state.ResumeTiming();
    mr::WorkCounters c;
    mr::ArenaRun out = mr::merge_runs(std::move(runs), c);
    benchmark::DoNotOptimize(out.refs.data());
    records += static_cast<std::int64_t>(out.size());
  }
  state.SetItemsProcessed(records);
  state.SetLabel("k=" + std::to_string(k) + " runs of " + std::to_string(per_run));
}
BENCHMARK(BM_MergeRuns)->Arg(4)->Arg(16)->Arg(64);

void BM_CacheSimAccess(benchmark::State& state) {
  arch::CacheLevelConfig cfg{.name = "L2",
                             .capacity = 256 * KB,
                             .associativity = 8,
                             .line_bytes = 64,
                             .hit_cycles = 12,
                             .sharer_group = 1};
  arch::CacheSim sim(cfg);
  Pcg32 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.access(rng.uniform(0, 4 * MB)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheSimAccess);

// Same cache and address distribution as BM_CacheSimAccess, fed in
// 4096-address blocks through the batched path; ns/op is per access.
void BM_CacheSimBatch(benchmark::State& state) {
  arch::CacheLevelConfig cfg{.name = "L2",
                             .capacity = 256 * KB,
                             .associativity = 8,
                             .line_bytes = 64,
                             .hit_cycles = 12,
                             .sharer_group = 1};
  arch::CacheSim sim(cfg);
  Pcg32 rng(42);
  constexpr std::size_t kBlock = 4096;
  std::vector<std::uint64_t> addrs(kBlock);
  std::int64_t accesses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& a : addrs) a = rng.uniform(0, 4 * MB);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.access_batch(addrs.data(), addrs.size()));
    accesses += static_cast<std::int64_t>(kBlock);
  }
  state.SetItemsProcessed(accesses);
  state.SetLabel("4096-address blocks");
}
BENCHMARK(BM_CacheSimBatch);

void BM_PriceTrace(benchmark::State& state) {
  auto def = wl::make_workload(wl::WorkloadId::kWordCount);
  mr::Engine engine;
  mr::JobConfig cfg;
  cfg.input_size = 16 * MB;
  cfg.block_size = 4 * MB;
  cfg.spill_buffer = 2 * MB;
  mr::JobTrace trace = engine.run(*def, cfg);
  perf::PerfModel model(arch::xeon_e5_2420());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.price(trace, 1.8 * GHz, 4).total_time());
  }
}
BENCHMARK(BM_PriceTrace);

// Console reporter that also captures per-benchmark results so main()
// can write the machine-readable JSON summary (bench_common.hpp's
// BENCH_*.json format) next to the normal console table.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& r : reports) {
      if (r.iterations == 0) continue;
      bench::BenchJsonEntry e;
      e.bench = r.benchmark_name();
      e.ns_per_op = r.real_accumulated_time / static_cast<double>(r.iterations) * 1e9;
      auto it = r.counters.find("items_per_second");
      e.records_per_s = it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
      entries.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<bench::BenchJsonEntry> entries;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --threads and --json before google-benchmark sees the arg
  // list (it rejects flags it does not know). A malformed --threads or
  // an empty or missing --json value exits 2, as in every other bench.
  const std::string json_path = bench::parse_json_flag(argc, argv);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string_view value;
    if (FlagMatch m = match_flag(argv[i], "--threads", &value); m != FlagMatch::kNoMatch) {
      if (m == FlagMatch::kNeedsValue) value = i + 1 < argc ? argv[++i] : "<missing>";
      auto parsed = parse_non_negative_int(value);
      if (!parsed) {
        bench::reject_flag(argv[0], "--threads", "a non-negative integer", std::string(value));
      }
      g_threads = *parsed;
    } else if (FlagMatch j = match_flag(argv[i], "--json", &value); j != FlagMatch::kNoMatch) {
      if (j == FlagMatch::kNeedsValue) ++i;  // its value, which parse_json_flag read
    } else {
      args.push_back(argv[i]);
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !bench::write_bench_json(json_path, reporter.entries)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
