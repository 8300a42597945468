// Internals shared by the figure builders: the sweep/label helpers
// from bench_common plus printf-style prose formatting (the paper
// commentary blocks are ported verbatim from the historical bench
// binaries and pinned byte-identical by tests/report).
#pragma once

#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "figures/figures.hpp"
#include "report/report.hpp"

namespace bvl::figs {

using report::Cell;
using report::Context;
using report::Report;
using report::Table;

/// snprintf into a std::string, for prose blocks with measured values.
inline std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[1024];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// The spec of one trace: `id` at `input` per node in `block` blocks,
/// every other engine input at its default.
inline core::RunSpec trace_spec(wl::WorkloadId id, Bytes input, Bytes block = 512 * MB) {
  core::RunSpec s;
  s.workload = id;
  s.input_size = input;
  s.block_size = block;
  return s;
}

/// One trace per workload at its paper input and 512 MB blocks: what
/// every figure priced at the reference configuration reads.
inline std::vector<core::RunSpec> default_specs() {
  std::vector<core::RunSpec> out;
  for (auto id : wl::all_workloads()) out.push_back(trace_spec(id, bench::default_input(id)));
  return out;
}

/// Every workload at its paper input over the micro block sweep; the
/// real apps start at 64 MB (Sec. 3.1.1).
inline std::vector<core::RunSpec> block_sweep_specs() {
  std::vector<core::RunSpec> out;
  for (auto id : wl::all_workloads()) {
    for (Bytes b : bench::micro_block_sweep()) {
      if (b == 32 * MB && (id == wl::WorkloadId::kNaiveBayes || id == wl::WorkloadId::kFpGrowth))
        continue;
      out.push_back(trace_spec(id, bench::default_input(id), b));
    }
  }
  return out;
}

/// Runs cell(i) for every i in [0, n) on the characterizer's pool, as
/// wide as --threads (1 runs every cell inline and creates no pool). A
/// cell is one rack replay that writes only its own pre-sized result
/// slot. Callers build tables, prose and checks from the slots
/// afterwards, in loop order, so the report is byte-identical at every
/// width: a replay is a pure function of its inputs and reads the
/// characterizer only through its locked caches.
inline void fan_out(Context& ctx, std::size_t n, const std::function<void(std::size_t)>& cell) {
  ctx.ch.run_on_pool(n, cell);
}

/// The pre-characterization width a fanned-out cell gives its replay.
/// The cells already fill the pool, so each replay reads its traces
/// inline (a trace the registry's prefetch missed is characterized on
/// the cell's worker); cells asking for one trace at the same time
/// share a single characterization (Characterizer::trace).
inline constexpr int kCellThreads = 1;

}  // namespace bvl::figs
