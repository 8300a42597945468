// Accelerator study: should the post-acceleration host be a big or a
// little core? Offload a workload's map phase to a modeled FPGA at a
// chosen speedup and compare the CPU-side residue on Xeon vs Atom —
// the paper's Section 3.4 question, as an interactive tool.
//
//   $ ./accelerator_study [workload] [accel_factor]
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string_view>

#include "accel/fpga.hpp"
#include "core/characterizer.hpp"
#include "util/table.hpp"

using namespace bvl;

namespace {

/// The whole of `s` as a finite number >= 1 (an accelerator never slows
/// the mapper down), or nullopt.
std::optional<double> parse_factor(std::string_view s) {
  double v = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(v) || v < 1.0)
    return std::nullopt;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: accelerator_study [WC|ST|GP|TS|NB|FP] [accel_factor]\n"
      "  accel_factor: mapper speedup, a number >= 1 (default 20)\n";
  if (argc > 3) {
    std::fprintf(stderr, "accelerator_study: unexpected argument '%s'\n%s", argv[3], usage);
    return 2;
  }
  const char* app = argc > 1 ? argv[1] : "WC";
  std::optional<wl::WorkloadId> workload = wl::find_workload(app);
  if (!workload) {
    std::fprintf(stderr, "accelerator_study: unknown workload '%s'\n%s", app, usage);
    return 2;
  }
  std::optional<double> parsed = argc > 2 ? parse_factor(argv[2]) : 20.0;
  if (!parsed) {
    std::fprintf(stderr, "accelerator_study: invalid accel_factor '%s'\n%s", argv[2], usage);
    return 2;
  }
  const wl::WorkloadId id = *workload;
  const double factor = *parsed;

  core::Characterizer ch;
  core::RunSpec spec;
  spec.workload = id;
  spec.input_size = 1 * GB;
  auto [xeon, atom] = ch.run_pair(spec);
  auto m = ch.trace(spec).map_total();
  double transfer = m.input_bytes + m.emit_bytes;

  std::printf("== FPGA offload study: %s, %.0fx mapper acceleration ==\n\n",
              wl::long_name(id).c_str(), factor);
  std::printf("hotspot: map phase is %.0f%% of the Xeon run, %.0f%% of the Atom run\n",
              100 * accel::map_hotspot_fraction(xeon), 100 * accel::map_hotspot_fraction(atom));
  std::printf("CPU<->FPGA transfer volume: %.2f GB\n\n", transfer / 1e9);

  accel::MapAccelerator fpga;
  TextTable t({"server", "map before[s]", "cpu residue[s]", "fpga[s]", "transfer[s]",
               "map after[s]", "app after[s]", "map speedup"});
  accel::AccelResult ax = fpga.accelerate(xeon, factor, transfer);
  accel::AccelResult aa = fpga.accelerate(atom, factor, transfer);
  for (const auto& [r, a] : {std::pair{&xeon, &ax}, std::pair{&atom, &aa}}) {
    t.add_row({r->server, fmt_fixed(r->map.time, 1), fmt_fixed(a->time_cpu, 1),
               fmt_fixed(a->time_fpga, 1), fmt_fixed(a->time_trans, 1),
               fmt_fixed(a->map_after, 1), fmt_fixed(a->app_after, 1),
               fmt_fixed(a->map_speedup, 1) + "x"});
  }
  std::fputs(t.render().c_str(), stdout);

  double ratio = accel::speedup_ratio(atom, xeon, aa, ax);
  std::printf("\nEq. (1) speedup ratio (after/before acceleration): %.2f\n", ratio);
  std::printf("before acceleration, migrating Atom->Xeon gains %.2fx;\n",
              atom.total_time() / xeon.total_time());
  std::printf("after acceleration it gains only %.2fx.\n", aa.app_after / ax.app_after);
  if (ratio < 1.0)
    std::printf(
        "verdict: the accelerator absorbs the work the big core was best at — the\n"
        "little core becomes the more energy-efficient host for the residue.\n");
  return 0;
}
