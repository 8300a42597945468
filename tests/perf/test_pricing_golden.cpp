// Pricing-golden regression: pins both pricers' output bit-for-bit.
//
//   PRICES.golden  — the closed form (PerfModel::price) on the seven
//                    job_sim specs: every priced phase field to the
//                    last IEEE bit.
//   JOB_SIM.golden — EventPricer::job_sim on the same seven specs under
//                    every NIC preset and DVFS level: the priced phases
//                    plus a digest of every per-task demand the rack
//                    replays consume.
//
// Both pricers get their volumes from PerfModel::phase_terms, which
// adds each task's totals in task order; the 20-map TeraSort spec is
// the one whose sums show that order in the last bits.
//
// Regenerate (only after an *intentional* model change) with:
//   BVL_UPDATE_GOLDEN=1 ./build/tests/test_perf --gtest_filter='PricingGolden.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/dvfs.hpp"
#include "core/characterizer.hpp"

namespace bvl::perf {
namespace {

std::string fixture_path(const char* name) { return std::string(BVL_GOLDEN_DIR) + "/" + name; }

core::Characterizer& shared_ch() {
  static core::Characterizer ch;  // both fixtures price the same six traces
  return ch;
}

/// The six fixture specs: every paper workload at the reference block
/// size, the real-data ones at 10 GB per node.
std::vector<core::RunSpec> fixture_specs() {
  std::vector<core::RunSpec> specs;
  for (auto id : wl::all_workloads()) {
    core::RunSpec spec;
    spec.workload = id;
    bool real = id == wl::WorkloadId::kNaiveBayes || id == wl::WorkloadId::kFpGrowth;
    spec.input_size = real ? 10 * GB : 1 * GB;
    specs.push_back(spec);
  }
  return specs;
}

/// The job_sim specs: the six fixture specs plus TeraSort at 10 GB per
/// node in 512 MB blocks (20 maps), the job size the batch rack replays
/// run. With twenty maps of compressed output, adding each task's codec
/// instructions to the phase apart from the rest of its work rounds
/// differently from adding its totals; the fixture's two-map TeraSort
/// rounds alike either way.
std::vector<core::RunSpec> job_sim_specs() {
  std::vector<core::RunSpec> specs = fixture_specs();
  core::RunSpec terasort;
  terasort.workload = wl::WorkloadId::kTeraSort;
  terasort.input_size = 10 * GB;
  terasort.block_size = 512 * MB;
  specs.push_back(terasort);
  return specs;
}

void append_phase(std::ostringstream& out, const char* name, const PhaseResult& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  %s time=%.17g cpu=%.17g io=%.17g net=%.17g power=%.17g energy=%.17g ipc=%.17g\n",
                name, p.time, p.cpu_time, p.io_time, p.net_time, p.dynamic_power, p.energy,
                p.avg_ipc);
  out << buf;
}

/// Every priced surface PRICES.golden pins: the seven job_sim specs x
/// both servers x two frequencies x two slot counts.
std::string render_prices() {
  std::ostringstream out;
  for (core::RunSpec spec : job_sim_specs()) {
    for (const auto& server : arch::paper_servers()) {
      for (Hertz freq : {1.2 * GHz, 1.8 * GHz}) {
        for (int slots : {4, 8}) {
          spec.freq = freq;
          spec.mappers = slots;
          RunResult r = shared_ch().run(spec, server);
          out << "run " << r.workload << " " << r.server << " freq=" << freq / GHz
              << " slots=" << slots << "\n";
          append_phase(out, "map", r.map);
          append_phase(out, "reduce", r.reduce);
          append_phase(out, "other", r.other);
        }
      }
    }
  }
  return out.str();
}

/// 64-bit FNV-1a over `s`, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of every SimTask field, map tasks then reduce tasks, each
/// printed exactly (%a) so a one-ulp change moves the digest.
std::uint64_t task_digest(const JobSim& js) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto* tasks : {&js.map_tasks, &js.reduce_tasks}) {
    for (const SimTask& t : *tasks) {
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%a %a %a %a %a %a %a\n", t.cpu_s, t.disk_svc_s,
                    t.nic_svc_s, t.serial_s, t.backoff_s, t.net_bytes, t.energy);
      h = fnv1a(h, buf);
    }
    h = fnv1a(h, "|");
  }
  return h;
}

std::string phase_fields(const PhaseResult& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g", p.time,
                p.cpu_time, p.io_time, p.net_time, p.dynamic_power, p.energy, p.avg_ipc);
  return buf;
}

/// Every job_sim render JOB_SIM.golden pins: the seven job_sim specs x
/// both servers x slots {4, 8} x the three NIC presets x the four DVFS
/// levels, one line each.
std::string render_job_sims() {
  std::ostringstream out;
  for (const core::RunSpec& spec : job_sim_specs()) {
    const mr::JobTrace& trace = shared_ch().trace(spec);
    for (const auto& server : arch::paper_servers()) {
      for (int slots : {4, 8}) {
        for (sim::NicPresetId nic :
             {sim::NicPresetId::k1GbE, sim::NicPresetId::k10GbE, sim::NicPresetId::k40GbE}) {
          const EventPricer& pricer = shared_ch().event_pricer(server, nic);
          for (Hertz freq : arch::paper_frequency_sweep()) {
            JobSim js = pricer.job_sim(trace, freq, slots);
            char tail[160];
            std::snprintf(tail, sizeof(tail),
                          " other_s=%.17g other_energy=%.17g maps=%zu reduces=%zu tasks=%016llx",
                          js.other_s, js.other_energy, js.map_tasks.size(),
                          js.reduce_tasks.size(),
                          static_cast<unsigned long long>(task_digest(js)));
            out << "job " << trace.workload << " " << server.name << " slots=" << slots
                << " nic=" << sim::nic_preset(nic).name << " freq=" << freq / GHz
                << " map=" << phase_fields(js.priced.map)
                << " reduce=" << phase_fields(js.priced.reduce)
                << " other=" << phase_fields(js.priced.other) << tail << "\n";
          }
        }
      }
    }
  }
  return out.str();
}

/// Compares `live` with the fixture line by line, so a divergence
/// names the first bad field; with BVL_UPDATE_GOLDEN set, rewrites it.
void expect_matches_fixture(const std::string& live, const char* name) {
  const std::string path = fixture_path(name);
  if (std::getenv("BVL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << live;
    GTEST_SKIP() << "fixture regenerated at " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing fixture " << path << " (run once with BVL_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << f.rdbuf();

  std::istringstream a(want.str()), b(live);
  std::string la, lb;
  std::size_t line = 0;
  while (std::getline(a, la)) {
    ++line;
    ASSERT_TRUE(std::getline(b, lb)) << "live output truncated at line " << line;
    ASSERT_EQ(la, lb) << "first divergence at line " << line;
  }
  EXPECT_FALSE(std::getline(b, lb)) << "live output has extra lines after " << line;
}

TEST(PricingGolden, AnalyticPricerMatchesFixture) {
  expect_matches_fixture(render_prices(), "PRICES.golden");
}

TEST(PricingGolden, EventJobSimMatchesFixture) {
  expect_matches_fixture(render_job_sims(), "JOB_SIM.golden");
}

}  // namespace
}  // namespace bvl::perf
