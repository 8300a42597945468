// bvl_repro: one driver for every reproduced paper artifact. Each
// figure/table lives in bench/figures/ and registers a Report builder;
// this binary lists them, runs one or all, checks their paper-shape
// assertions and emits text/JSON/CSV. Figures run in one process and
// share the characterizer's trace cache, so `--all` is far cheaper
// than the historical one-binary-per-figure layout.
//
// usage: bvl_repro [--list] [--run ID]... [--all] [--check] [--json DIR]
//                  [--csv DIR] [--policy P] [--threads N] [--cache-dir D]
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "figures/figures.hpp"
#include "report/emitters.hpp"
#include "report/registry.hpp"

using namespace bvl;

namespace {

/// The flags this binary parses itself: bench::init steps over them,
/// and --help lists them before the shared ones.
const std::initializer_list<bench::OwnFlag> kOwnFlags = {
    {"--list", false, "  --list        list every registered figure id and exit\n"},
    {"--run", true,
     "  --run ID      build and print one figure (repeatable);\n"
     "                paired ids (e.g. fig05/fig06) print their\n"
     "                shared report\n"},
    {"--all", false, "  --all         build and print every figure\n"},
    {"--check", false,
     "  --check       append each figure's shape-assertion results\n"
     "                and fail if any assertion fails\n"},
    {"--json", true,
     "  --json DIR    also write DIR/BENCH_figures.json (ledger\n"
     "                rows for every table of the selected figures)\n"},
    {"--csv", true,
     "  --csv DIR     also write one DIR/<group>_<table>.csv per\n"
     "                table of the selected figures\n"},
    {"--policy", true,
     "  --policy P    override the placement policy of fabric-aware\n"
     "                figures (class-aware, earliest-finish,\n"
     "                round-robin, rack-local)\n"}};

}  // namespace

int main(int argc, char** argv) {
  report::FigureRegistry registry;
  figs::register_all_figures(registry);

  bool list = false, all = false, check = false, help = false;
  std::string json_dir, csv_dir, policy_name;
  std::vector<std::string> run_ids;
  bool bad_args = false;
  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
      bad_args = true;
      return nullptr;
    }
    return argv[++i];
  };
  // Valued flags go through string_util::match_flag so `--flag VALUE`
  // and `--flag=VALUE` parse identically everywhere; any unmatched
  // argument is still an unknown option (exit 2), and so is an empty
  // value, which would otherwise read as the flag being absent. Returns
  // 0 when the argument is not `flag`, 1 when a value was captured, -1
  // when the bare form had no next argument (bad_args already set).
  auto valued = [&](std::string_view a, int& i, const char* flag, const char* expected,
                    std::string* out) -> int {
    std::string_view inline_value;
    FlagMatch m = match_flag(a, flag, &inline_value);
    if (m == FlagMatch::kNoMatch) return 0;
    if (m == FlagMatch::kNeedsValue) {
      const char* v = need_value(i, flag);
      if (v == nullptr) return -1;
      *out = v;
    } else {
      *out = std::string(inline_value);
    }
    if (out->empty()) bench::reject_flag(argv[0], flag, expected, "");
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string run_id;
    if (a == "--list") list = true;
    else if (a == "--all") all = true;
    else if (a == "--check") check = true;
    else if (a == "--help" || a == "-h") help = true;
    else if (int r = valued(a, i, "--run", "a figure id", &run_id); r != 0) {
      if (r > 0) run_ids.push_back(run_id);
    } else if (valued(a, i, "--json", "a directory", &json_dir) != 0) {
    } else if (valued(a, i, "--csv", "a directory", &csv_dir) != 0) {
    } else if (valued(a, i, "--policy", "a placement policy", &policy_name) != 0) {
    } else if (match_flag(a, "--threads", nullptr) != FlagMatch::kNoMatch) {
      if (a == "--threads") ++i;  // value consumed by bench::init below
    } else if (match_flag(a, "--cache-dir", nullptr) != FlagMatch::kNoMatch) {
      if (a == "--cache-dir") ++i;  // value consumed by bench::init below
    } else {
      std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", argv[0], a.c_str());
      return 2;
    }
  }
  if (bad_args) return 2;
  if (help) {
    bench::print_help(argv[0], kOwnFlags);
    return 0;
  }
  std::optional<core::MixPolicy> policy_override;
  if (!policy_name.empty()) {
    policy_override = core::mix_policy_from_string(policy_name);
    if (!policy_override.has_value()) {
      std::fprintf(stderr,
                   "%s: unknown policy '%s' (expected class-aware, earliest-finish, "
                   "round-robin or rack-local)\n",
                   argv[0], policy_name.c_str());
      return 2;
    }
  }
  bench::init(argc, argv, kOwnFlags);  // strict --threads handling

  if (list) {
    for (const auto& def : registry.figures()) {
      std::printf("%-7s %s\n", def.id.c_str(), def.title.c_str());
      std::printf("        %s\n", def.paper_ref.c_str());
      std::printf("        shape: %s\n", def.shape_note.c_str());
    }
    return 0;
  }

  std::vector<std::string> groups;
  if (all) {
    groups = registry.groups();
  } else {
    for (const auto& id : run_ids) {
      const report::FigureDef* def = registry.find(id);
      if (def == nullptr) {
        std::fprintf(stderr, "%s: unknown figure '%s' (see --list)\n", argv[0], id.c_str());
        return 2;
      }
      std::string group = def->group.empty() ? def->id : def->group;
      bool dup = false;
      for (const auto& g : groups) dup = dup || g == group;
      if (!dup) groups.push_back(group);
    }
  }
  if (groups.empty()) {
    std::fprintf(stderr,
                 "%s: no figure selected\n"
                 "usage: %s [--list] [--run ID]... [--all] [--check] [--json DIR] [--csv DIR]\n"
                 "       [--policy P] [--threads N] [--cache-dir D] (try --help)\n",
                 argv[0], argv[0]);
    return 2;
  }

  // Each output directory must exist before any figure is built: a path
  // that cannot be one fails here, not after the cold pass.
  for (const std::string* dir : {&json_dir, &csv_dir}) {
    if (dir->empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(*dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s: cannot create directory '%s': %s\n", argv[0], dir->c_str(),
                   ec.message().c_str());
      return 2;
    }
  }

  core::Characterizer& ch = bench::characterizer();
  report::Context ctx{ch, policy_override};
  std::vector<report::MetricsRow> ledger;
  int failed = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    report::Report rep = registry.build(groups[i], ctx);
    if (i > 0) std::printf("\n");
    std::fputs(report::render_text(rep).c_str(), stdout);
    if (check) {
      std::fputs(report::render_checks_text(rep).c_str(), stdout);
      failed += rep.failed_checks();
    }
    if (!json_dir.empty()) {
      auto rows = report::metrics_rows(rep);
      ledger.insert(ledger.end(), rows.begin(), rows.end());
    }
    if (!csv_dir.empty()) {
      for (const auto& block : rep.blocks) {
        if (!block.table) continue;
        std::string path = csv_dir + "/" + rep.id + "_" + block.table->name + ".csv";
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
          std::fprintf(stderr, "%s: cannot write %s\n", argv[0], path.c_str());
          return 1;
        }
        std::string csv = report::render_table_csv(*block.table);
        std::fwrite(csv.data(), 1, csv.size(), f);
        std::fclose(f);
      }
    }
  }
  if (!json_dir.empty()) {
    std::string path = json_dir + "/BENCH_figures.json";
    if (!report::write_metrics_json_file(path, ledger)) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0], path.c_str());
      return 1;
    }
  }
  if (check && failed > 0) {
    std::fprintf(stderr, "%d shape assertion(s) failed\n", failed);
    return 1;
  }
  return 0;
}
