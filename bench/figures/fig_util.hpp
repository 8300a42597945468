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

/// Runs cell(i) for every i in [0, n) on one pool as wide as --threads
/// (the characterizer's exec_threads; 1 runs every cell inline and
/// creates no pool). A cell is one rack replay that writes only its
/// own pre-sized result slot. Callers build tables, prose and checks
/// from the slots afterwards, in loop order, so the report is
/// byte-identical at every width: a replay is a pure function of its
/// inputs and reads the characterizer only through its locked caches.
inline void fan_out(Context& ctx, std::size_t n, const std::function<void(std::size_t)>& cell) {
  parallel_for(ctx.ch.exec_threads(), n, cell);
}

/// The pre-characterization width a fanned-out cell gives its replay.
/// The cell pool is already as wide as --threads, so each replay
/// reads its traces inline; cells asking for one trace at the same
/// time share a single characterization (Characterizer::trace).
inline constexpr int kCellThreads = 1;

}  // namespace bvl::figs
