// Pins the figure registry end to end: every registered figure id,
// byte-identical text output against the goldens captured from the
// pre-registry bench binaries, every paper-shape assertion green, and
// ledger rows from every group.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/characterizer.hpp"
#include "figures/figures.hpp"
#include "report/emitters.hpp"
#include "report/registry.hpp"

namespace bvl {
namespace {

report::FigureRegistry& registry() {
  static report::FigureRegistry* reg = [] {
    auto* r = new report::FigureRegistry();
    figs::register_all_figures(*r);
    return r;
  }();
  return *reg;
}

std::string read_golden(const std::string& group) {
  std::ifstream in(std::string(BVL_FIGURE_GOLDEN_DIR) + "/" + group + ".txt",
                   std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FigureRegistry, EnumeratesAllTwentyThreeFigures) {
  std::vector<std::string> want{"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
                                "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
                                "fig15", "fig16", "fig17", "table3", "ablate", "service",
                                "fabric", "fabric_crossover", "powercap"};
  ASSERT_EQ(registry().figures().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(registry().figures()[i].id, want[i]);
    EXPECT_FALSE(registry().figures()[i].title.empty()) << want[i];
    EXPECT_FALSE(registry().figures()[i].paper_ref.empty()) << want[i];
    EXPECT_FALSE(registry().figures()[i].shape_note.empty()) << want[i];
  }
  std::vector<std::string> groups{"fig01", "fig02", "fig03", "fig04", "fig0506", "fig0708",
                                  "fig09", "fig1011", "fig1213", "fig14", "fig15", "fig16",
                                  "fig17", "table3", "ablate", "service", "fabric",
                                  "fabric_crossover", "powercap"};
  EXPECT_EQ(registry().groups(), groups);
  // Paired ids resolve to their shared group report.
  EXPECT_EQ(registry().find("fig05")->group, "fig0506");
  EXPECT_EQ(registry().find("fig06")->group, "fig0506");
  EXPECT_EQ(registry().find("fig13")->group, "fig1213");
}

/// Cache files in `dir`.
std::size_t count_files(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) n += e.is_regular_file() ? 1 : 0;
  return n;
}

TEST(Figures, TextByteIdenticalToGoldenAndShapeChecksPass) {
  // BVL_UPDATE_GOLDEN=1 rewrites the committed fixtures instead of
  // comparing — same convention as the trace and pricing goldens. Only
  // for *intentional* model changes, never to silence a diff.
  const bool update = std::getenv("BVL_UPDATE_GOLDEN") != nullptr;
  // A cold --all into an empty cache directory: each group's declared
  // specs are prefetched first, so its builder runs no engine itself.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "all_trace_cache";
  fs::remove_all(dir);
  core::Characterizer ch;
  ch.set_cache_dir(dir.string());
  report::Context ctx{ch, std::nullopt};
  for (const auto& group : registry().groups()) {
    SCOPED_TRACE(group);
    ch.prefetch(registry().find(group)->specs, ch.exec_threads());
    const int runs = ch.engine_runs();
    report::Report rep = registry().build(group, ctx);
    EXPECT_EQ(ch.engine_runs(), runs) << "the builder read a trace its specs do not declare";
    EXPECT_EQ(rep.id, group);
    if (update) {
      std::ofstream out(std::string(BVL_FIGURE_GOLDEN_DIR) + "/" + group + ".txt",
                        std::ios::binary);
      ASSERT_TRUE(out.good()) << "cannot write golden for " << group;
      out << report::render_text(rep);
    } else {
      std::string golden = read_golden(group);
      ASSERT_FALSE(golden.empty()) << "missing golden for " << group;
      EXPECT_EQ(report::render_text(rep), golden);
    }
    EXPECT_FALSE(rep.checks.empty()) << group << " pins no shape assertions";
    for (const auto& c : rep.checks)
      EXPECT_TRUE(c.passed) << group << "/" << c.name << ": " << c.detail;
    // Every group contributes rows to the BENCH_figures.json ledger.
    EXPECT_FALSE(report::metrics_rows(rep).empty()) << group << " yields no ledger row";
  }
  // One engine run and one cache file per distinct trace.
  EXPECT_EQ(ch.engine_runs(), 45);
  EXPECT_EQ(count_files(dir), 45u);

  // Above, a later group finds the traces of earlier ones in memory.
  // Here each group starts from its own declared specs alone, read
  // from the cache: with the disk detached, a trace the builder reads
  // but does not declare would run the engine.
  for (const auto& group : registry().groups()) {
    SCOPED_TRACE(group);
    core::Characterizer alone;
    alone.set_cache_dir(dir.string());
    alone.prefetch(registry().find(group)->specs, 1);
    alone.set_cache_dir("");
    report::Context own{alone, std::nullopt};
    registry().build(group, own);
    EXPECT_EQ(alone.engine_runs(), 0) << "the builder read a trace its specs do not declare";
  }
  fs::remove_all(dir);
}

TEST(Figures, AblateReusesTheTraceCache) {
  // ablate reads every trace through the characterizer, so a cold build
  // stores each distinct trace once and a warm one runs no engine.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "ablate_trace_cache";
  fs::remove_all(dir);
  auto build = [&] {
    core::Characterizer ch;
    ch.set_exec_threads(1);
    ch.set_cache_dir(dir.string());
    report::Context ctx{ch, std::nullopt};
    return report::render_text(registry().build("ablate", ctx));
  };
  // Each file with its write time: a rewrite would show as a new time.
  auto files = [&] {
    std::map<fs::path, fs::file_time_type> out;
    for (const auto& e : fs::directory_iterator(dir)) out[e.path()] = e.last_write_time();
    return out;
  };
  build();
  // WordCount with the combiner on and off, Sort at five spill
  // buffers, TeraSort once.
  const auto cold = files();
  EXPECT_EQ(cold.size(), 8u);
  EXPECT_EQ(build(), read_golden("ablate"));
  EXPECT_EQ(files(), cold);
  fs::remove_all(dir);
}

TEST(Figures, FannedOutGroupsAreWidthInvariant) {
  // These groups fan their rack replays out over the characterizer's
  // pool, as wide as --threads. Width 4 goes first, on an empty cache
  // directory, so the registry's prefetch keeps two characterizations
  // in flight on that pool; width 1 then replays every cell inline
  // from the disk cache.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "fan_out_trace_cache";
  fs::remove_all(dir);
  for (int width : {4, 1}) {
    core::Characterizer ch;
    ch.set_exec_threads(width);
    ch.set_cache_dir(dir.string());
    report::Context ctx{ch, std::nullopt};
    for (const char* group : {"service", "powercap", "fabric", "fabric_crossover"}) {
      SCOPED_TRACE(std::string(group) + " at width " + std::to_string(width));
      EXPECT_EQ(report::render_text(registry().build(group, ctx)), read_golden(group));
    }
  }
  fs::remove_all(dir);
}

TEST(Figures, EveryTableYieldsLedgerRows) {
  core::Characterizer ch;
  report::Context ctx{ch, std::nullopt};
  report::Report rep = registry().build("fig09", ctx);
  auto rows = report::metrics_rows(rep);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].label, "fig09/edp_ratio/WC");
  EXPECT_EQ(rows[0].metrics.size(), 5u);  // one per block size
  // NB skips 32 MB, so its row carries one metric fewer.
  EXPECT_EQ(rows[4].label, "fig09/edp_ratio/NB");
  EXPECT_EQ(rows[4].metrics.size(), 4u);
}

}  // namespace
}  // namespace bvl
