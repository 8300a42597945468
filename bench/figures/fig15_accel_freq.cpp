// Fig. 15: post-acceleration speedup ratio (Eq. 1) across operating
// frequencies, at the 100x mapper-acceleration point.
#include "accel/fpga.hpp"
#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Fig. 15 - speedup ratio before/after acceleration vs frequency";
  rep.paper_ref = "Sec. 3.4.1, Fig. 15";
  rep.notes = "100x mapper acceleration";

  std::vector<std::string> headers{"app"};
  for (Hertz f : arch::paper_frequency_sweep()) headers.push_back(bench::freq_label(f));
  Table t("speedup_ratio", headers);

  bool below_one = true;
  std::string below_detail;
  accel::MapAccelerator fpga;
  for (auto id : wl::all_workloads()) {
    std::vector<Cell> row{Cell::txt(wl::short_name(id))};
    for (Hertz f : arch::paper_frequency_sweep()) {
      core::RunSpec s;
      s.workload = id;
      s.input_size = bench::default_input(id);
      s.freq = f;
      auto [xeon, atom] = ctx.ch.run_pair(s);
      auto m = ctx.ch.trace(s).map_total();
      double bytes = m.input_bytes + m.emit_bytes;
      accel::AccelResult aa = fpga.accelerate(atom, 100.0, bytes);
      accel::AccelResult ax = fpga.accelerate(xeon, 100.0, bytes);
      double r = accel::speedup_ratio(atom, xeon, aa, ax);
      row.push_back(report::fixed(r, 2));
      if (r >= 1.0) {
        below_one = false;
        below_detail += strf("%s at %s: %.2f; ", wl::short_name(id).c_str(),
                             bench::freq_label(f).c_str(), r);
      }
    }
    t.add_row(std::move(row));
  }
  rep.add(std::move(t));
  rep.text(
      "\npaper shape: the post-acceleration migration gain stays below the\n"
      "pre-acceleration gain across the frequency sweep.\n");

  rep.check("ratio-below-one-across-frequency-sweep", below_one, below_detail);
  return rep;
}

}  // namespace

void register_fig15(report::FigureRegistry& r) {
  r.add({"fig15", "", "Post-acceleration speedup ratio vs operating frequency",
         "Sec. 3.4.1, Fig. 15",
         "post-acceleration migration gain stays below 1 at every frequency", build,
         default_specs()});
}

}  // namespace bvl::figs
