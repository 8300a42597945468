// Shared helpers for the bench binaries (the figure suite lives in
// figures/ and is driven by bvl_repro; the binaries that remain on
// this header are the extension studies and the engine microbench).
// Units are simulator seconds/joules; the paper-facing quantity is
// the shape, see EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "core/characterizer.hpp"
#include "core/classifier.hpp"
#include "core/cost_model.hpp"
#include "core/metrics.hpp"
#include "report/emitters.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace bvl::bench {

inline core::Characterizer& characterizer() {
  static core::Characterizer ch;
  return ch;
}

/// One of a binary's own flags, which init() leaves to the binary. A
/// `valued` flag's bare form `--flag VALUE` also owns the next argument.
/// `help` is the flag's --help entry: whole lines, each ending in '\n'.
struct OwnFlag {
  std::string_view name;
  bool valued = false;
  std::string_view help;
};

/// Prints the usage line, the binary's own flags (`own`) and then the
/// flags init() parses, which every bench accepts.
inline void print_help(const char* prog, std::initializer_list<OwnFlag> own) {
  std::printf("usage: %s [options]\n", prog);
  if (own.size() != 0) std::printf("options:\n");
  for (const OwnFlag& f : own) std::fwrite(f.help.data(), 1, f.help.size(), stdout);
  std::printf("shared options:\n");
  std::printf("  --threads N   width of the worker pool that engine runs and\n");
  std::printf("                the figures' rack-replay fan-out share\n");
  std::printf("                (0 = hardware concurrency, 1 = no pools;\n");
  std::printf("                default 0). Printed tables are\n");
  std::printf("                bit-identical at any width.\n");
  std::printf("  --cache-dir D persist characterized traces under D and\n");
  std::printf("                reuse them across runs/processes (created\n");
  std::printf("                if absent; results are bit-identical with\n");
  std::printf("                or without the cache)\n");
  std::printf("  --help        this message\n");
}

/// Rejects a malformed flag value: prints why and exits 2.
[[noreturn]] inline void reject_flag(const char* prog, const char* flag, const char* expected,
                                     const std::string& value) {
  std::fprintf(stderr, "%s: invalid %s value '%s' (expected %s)\n", prog, flag, value.c_str(),
               expected);
  std::exit(2);
}

/// Parses the flags shared by every bench and applies them to the
/// shared characterizer:
///   --threads N | --threads=N       width of every worker pool
///   --cache-dir D | --cache-dir=D   persistent trace cache directory
///   --help                          print the usage and every flag, exit 0
/// `own` lists the binary's own flags (e.g. --json), which it parses
/// itself. Malformed --threads values are rejected with an error (exit
/// 2) instead of atoi's silent 0; so is a valueless --cache-dir, and so
/// is any argument that is neither shared nor in `own`, before the
/// binary runs anything.
inline void init(int argc, char** argv, std::initializer_list<OwnFlag> own = {}) {
  // Pulls the flag's value out of argv, consuming the next entry for
  // the bare `--flag VALUE` form; exits 2 when the value is missing.
  auto flag_value = [&](int& i, const char* flag, const char* expected,
                        FlagMatch m) -> std::string_view {
    if (m == FlagMatch::kNeedsValue) {
      if (i + 1 >= argc) reject_flag(argv[0], flag, expected, "<missing>");
      return argv[++i];
    }
    std::string_view inline_value;
    match_flag(argv[i], flag, &inline_value);
    return inline_value;
  };
  // Matches one of `own`, stepping over a bare valued flag's value (a
  // missing one is the binary's parser's to reject).
  auto own_flag = [&](int& i) {
    for (const OwnFlag& f : own) {
      if (!f.valued) {
        if (argv[i] == f.name) return true;
        continue;
      }
      FlagMatch m = match_flag(argv[i], f.name, nullptr);
      if (m == FlagMatch::kNoMatch) continue;
      if (m == FlagMatch::kNeedsValue && i + 1 < argc) ++i;
      return true;
    }
    return false;
  };
  int threads = 0;
  std::string cache_dir;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--help" || a == "-h") {
      print_help(argv[0], own);
      std::exit(0);
    }
    if (FlagMatch m = match_flag(a, "--threads", nullptr); m != FlagMatch::kNoMatch) {
      std::string_view value = flag_value(i, "--threads", "a non-negative integer", m);
      auto parsed = parse_non_negative_int(value);
      if (!parsed) reject_flag(argv[0], "--threads", "a non-negative integer", std::string(value));
      threads = *parsed;
    } else if (FlagMatch m2 = match_flag(a, "--cache-dir", nullptr); m2 != FlagMatch::kNoMatch) {
      std::string_view value = flag_value(i, "--cache-dir", "a directory path", m2);
      if (value.empty()) reject_flag(argv[0], "--cache-dir", "a directory path", "");
      cache_dir = value;
    } else if (!own_flag(i)) {
      std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", argv[0], argv[i]);
      std::exit(2);
    }
  }
  characterizer().set_exec_threads(threads);
  if (!cache_dir.empty()) characterizer().set_cache_dir(cache_dir);
}

inline std::vector<Bytes> micro_block_sweep() {
  return {32 * MB, 64 * MB, 128 * MB, 256 * MB, 512 * MB};
}

/// Real-world apps start at 64 MB (Sec. 3.1.1: 32 MB ruled out).
inline std::vector<Bytes> real_block_sweep() {
  return {64 * MB, 128 * MB, 256 * MB, 512 * MB};
}

inline Bytes default_input(wl::WorkloadId id) {
  bool real = id == wl::WorkloadId::kNaiveBayes || id == wl::WorkloadId::kFpGrowth;
  return real ? 10 * GB : 1 * GB;  // Sec. 3: 1 GB micro / 10 GB real per node
}

inline double edp(const perf::PhaseResult& p) { return p.energy * p.time; }
inline double edp(const perf::RunResult& r) { return r.total_energy() * r.total_time(); }

inline std::string block_label(Bytes b) { return fmt_num(to_mb(b)) + "MB"; }
inline std::string freq_label(Hertz f) { return fmt_fixed(f / GHz, 1) + "GHz"; }

inline void print_header(const std::string& title, const std::string& paper_ref,
                         const std::string& notes = "") {
  std::fputs(report::header_text(title, paper_ref, notes).c_str(), stdout);
}

/// One row of a machine-readable bench summary. records_per_s is 0
/// for benchmarks without a record notion.
struct BenchJsonEntry {
  std::string bench;
  double ns_per_op = 0;
  double records_per_s = 0;
};

/// The `--json PATH` flag parse_json_flag() reads, as init() takes it
/// among a binary's own flags.
inline constexpr OwnFlag kJsonFlag = {"--json", true,
                                      "  --json PATH   write machine-readable results to PATH\n"};

/// Parses a `--json PATH` / `--json=PATH` flag out of argv via the
/// same match_flag convention as --threads/--cache-dir in init();
/// returns the path or "" if absent. A valueless --json is rejected
/// with exit 2 (like every other malformed shared flag) instead of
/// being silently dropped. Benches that support it pass their results
/// to write_metrics_json so the repo's committed BENCH_*.json perf
/// ledgers can be regenerated from CI runs.
inline std::string parse_json_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view value;
    FlagMatch m = match_flag(argv[i], "--json", &value);
    if (m == FlagMatch::kNoMatch) continue;
    if (m == FlagMatch::kNeedsValue) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: invalid --json value '<missing>' (expected a path)\n",
                     argv[0]);
        std::exit(2);
      }
      value = argv[i + 1];
    }
    if (value.empty()) {
      std::fprintf(stderr, "%s: invalid --json value '' (expected a path)\n", argv[0]);
      std::exit(2);
    }
    return std::string(value);
  }
  return "";
}

/// Ledger row format shared with the report emitters (and with
/// bvl_repro's --json output).
using MetricsJsonRow = report::MetricsRow;

/// Writes rows as a JSON array of {"bench": label, <metric>: value,
/// ...} objects. Returns false if the file can't be opened.
inline bool write_metrics_json(const std::string& path, const std::vector<MetricsJsonRow>& rows) {
  return report::write_metrics_json_file(path, rows);
}

/// Writes entries as a JSON array of {"bench", "ns_per_op",
/// "records_per_s"} objects. Returns false if the file can't be opened.
inline bool write_bench_json(const std::string& path, const std::vector<BenchJsonEntry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(f, "  {\"bench\": \"%s\", \"ns_per_op\": %.1f, \"records_per_s\": %.1f}%s\n",
                 entries[i].bench.c_str(), entries[i].ns_per_op, entries[i].records_per_s,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  return true;
}

}  // namespace bvl::bench
