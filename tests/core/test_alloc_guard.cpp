// Allocation guard for the discrete-event path. Counts global operator
// new calls in a scoped window around three replays:
//   * a simulate_service stream in the service_rack shape (141 nodes, a
//     striped four-rack fabric with a 4-link ECMP spine, rack-local
//     placement, the ondemand governor under a binding rack cap) over
//     a shorter horizon;
//   * a simulate_mix batch queue;
//   * one EventPricer::job_sim single-node replay.
// Each must make at least 10x fewer heap allocations per replayed task
// than the replay made while every event carried a std::function,
// every fan-in a shared counter and every compute leg a list node (the
// kBefore* counts, measured with this counter on these same runs).
// Deterministic: each run is single-threaded, seeded and repeated once
// unmeasured first, so the window sees only the replay itself — no
// characterization and no first-use cache fill — and no time is read.
//
// The counter replaces the global operator new, so the guard has an
// executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/cluster_sim.hpp"
#include "sim/network/nic_preset.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_news{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bvl::core {
namespace {

/// Heap allocations per replayed task of the replay before the change
/// that made events, fan-ins and compute legs allocation-free, counted
/// by this binary's operator new on the runs below (257,741 for 6,132
/// tasks, 18,708 for 1,472 and 319 for 24), rounded down.
constexpr double kBeforeService = 42.0;
constexpr double kBeforeMix = 12.7;
constexpr double kBeforeJobSim = 13.2;
/// The guard: at least this many times fewer.
constexpr double kFactor = 10;

/// operator new calls made by `run`.
template <class F>
std::uint64_t count_news(F&& run) {
  g_news.store(0);
  g_counting.store(true);
  run();
  g_counting.store(false);
  return g_news.load();
}

Characterizer& shared_ch() {
  static Characterizer ch;
  return ch;
}

void expect_guarded(const char* what, std::uint64_t news, int tasks, double before) {
  ASSERT_GT(tasks, 0);
  const double per_task = static_cast<double>(news) / tasks;
  std::printf("%s: %llu allocations for %d tasks (%.3f per task; before: %.1f)\n", what,
              static_cast<unsigned long long>(news), tasks, per_task, before);
  EXPECT_LE(per_task * kFactor, before) << what;
}

TEST(AllocGuard, ServiceStreamWithFabricAndCappedGovernor) {
  const std::vector<NodeSpec> rack = comparison_racks(64)[2];  // 32 Xeon + 109 Atom
  int nodes = 0;
  for (const NodeSpec& n : rack) nodes += n.count;
  TenantWorkload cpu;
  cpu.tenant = {"cpu-batch", 1.0, 0, 1.0};
  cpu.mix = {{wl::WorkloadId::kWordCount, 1 * GB}, {wl::WorkloadId::kGrep, 1 * GB}};
  TenantWorkload io;
  io.tenant = {"io-batch", 1.0, 0, 1.0};
  io.mix = {{wl::WorkloadId::kSort, 1 * GB}, {wl::WorkloadId::kTeraSort, 1 * GB}};
  ServiceOptions o;
  o.arrival_rate = 0.7;
  o.horizon = 1800;
  o.diurnal.amplitude = 0.3;
  o.diurnal.period = o.horizon;
  o.diurnal.peak_at = o.horizon * 14.0 / 24.0;
  o.warmup = 300;
  o.seed = 42;
  o.policy = MixPolicy::kRackLocal;
  o.mix.slots_per_node = 4;
  o.mix.fabric.modeled = true;
  o.mix.fabric.nic_preset = sim::NicPresetId::k1GbE;
  for (int i = 0; i < nodes; ++i) o.mix.fabric.topology.rack_of.push_back(i % 4);
  o.mix.fabric.topology.spine_oversub = 4;
  o.mix.fabric.topology.spine_multipath = 4;
  o.mix.power.governor = power::GovernorKind::kOndemand;
  o.mix.power.rack_cap_w = 8000;

  const std::vector<TenantWorkload> tenants = {cpu, io};
  simulate_service(shared_ch(), tenants, rack, o, 1);
  ServiceResult r;
  const std::uint64_t news =
      count_news([&] { r = simulate_service(shared_ch(), tenants, rack, o, 1); });
  EXPECT_GT(r.power.level_changes, 0);
  EXPECT_GT(r.fabric.cross_rack_bytes, 0.0);
  int tasks = 0;
  for (const ClassUtilization& c : r.classes) tasks += c.tasks_run;
  expect_guarded("simulate_service", news, tasks, kBeforeService);
}

TEST(AllocGuard, BatchMix) {
  // batch_rack's queue: the eight-job mix of ten-GB jobs eight times
  // over, on the iso-power 141-node hetero rack.
  const std::vector<JobRequest> mix = {
      {wl::WorkloadId::kWordCount, 10 * GB}, {wl::WorkloadId::kSort, 10 * GB},
      {wl::WorkloadId::kGrep, 10 * GB},      {wl::WorkloadId::kTeraSort, 10 * GB},
      {wl::WorkloadId::kNaiveBayes, 10 * GB}, {wl::WorkloadId::kWordCount, 10 * GB},
      {wl::WorkloadId::kSort, 10 * GB},      {wl::WorkloadId::kGrep, 10 * GB}};
  std::vector<JobRequest> jobs;
  for (int copy = 0; copy < 8; ++copy) jobs.insert(jobs.end(), mix.begin(), mix.end());
  const std::vector<NodeSpec> rack = comparison_racks(64)[2];  // 32 Xeon + 109 Atom
  simulate_mix(shared_ch(), jobs, rack, MixPolicy::kEarliestFinish, 1);
  MixResult r;
  const std::uint64_t news = count_news(
      [&] { r = simulate_mix(shared_ch(), jobs, rack, MixPolicy::kEarliestFinish, 1); });
  int tasks = 0;
  for (const NodeUtilization& n : r.nodes) tasks += n.tasks_run;
  expect_guarded("simulate_mix", news, tasks, kBeforeMix);
}

TEST(AllocGuard, SingleNodeJobSim) {
  RunSpec spec;
  spec.workload = wl::WorkloadId::kTeraSort;
  spec.input_size = 10 * GB;
  const mr::JobTrace& trace = shared_ch().trace(spec);
  const perf::EventPricer& pricer =
      shared_ch().event_pricer(arch::atom_c2758(), sim::NicPresetId::k1GbE);
  pricer.job_sim(trace, spec.freq, 4);
  perf::JobSim js;
  const std::uint64_t news = count_news([&] { js = pricer.job_sim(trace, spec.freq, 4); });
  expect_guarded("job_sim", news, static_cast<int>(js.map_tasks.size() + js.reduce_tasks.size()),
                 kBeforeJobSim);
}

}  // namespace
}  // namespace bvl::core
