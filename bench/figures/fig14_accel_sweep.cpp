// Fig. 14: speedup of Atom vs Xeon before and after acceleration —
// Eq. (1)'s ratio as the mapper acceleration factor sweeps 1x..100x.
#include <algorithm>

#include "accel/fpga.hpp"
#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

double transfer_bytes_for(const mr::JobTrace& trace) {
  // Map input plus map output cross the CPU<->FPGA link.
  auto m = trace.map_total();
  return m.input_bytes + m.emit_bytes;
}

Report build(Context& ctx) {
  Report rep;
  rep.title = "Fig. 14 - post-acceleration Atom-vs-Xeon speedup ratio (Eq. 1)";
  rep.paper_ref = "Sec. 3.4, Fig. 14";
  rep.notes = "< 1: acceleration weakens the case for migrating to Xeon";

  std::vector<double> sweep{1, 2, 5, 10, 20, 40, 60, 80, 100};
  std::vector<std::string> headers{"app"};
  for (double x : sweep) headers.push_back(fmt_num(x) + "x");
  Table t("speedup_ratio", headers);

  bool monotone = true, below_one = true;
  std::string mono_detail, below_detail;
  double fp_100 = 0, max_other_100 = 0;
  accel::MapAccelerator fpga;
  for (auto id : wl::all_workloads()) {
    core::RunSpec s;
    s.workload = id;
    s.input_size = bench::default_input(id);
    auto [xeon, atom] = ctx.ch.run_pair(s);
    double bytes = transfer_bytes_for(ctx.ch.trace(s));

    std::vector<Cell> row{Cell::txt(wl::short_name(id))};
    double prev = 2.0, last = 0;
    for (double x : sweep) {
      accel::AccelResult aa = fpga.accelerate(atom, x, bytes);
      accel::AccelResult ax = fpga.accelerate(xeon, x, bytes);
      double r = accel::speedup_ratio(atom, xeon, aa, ax);
      row.push_back(report::fixed(r, 2));
      if (r > prev * (1.0 + 1e-9)) {
        monotone = false;
        mono_detail += strf("%s at %gx; ", wl::short_name(id).c_str(), x);
      }
      prev = r;
      last = r;
    }
    if (last >= 1.0) {
      below_one = false;
      below_detail += strf("%s %.2f; ", wl::short_name(id).c_str(), last);
    }
    if (id == wl::WorkloadId::kFpGrowth) fp_100 = last;
    else max_other_100 = std::max(max_other_100, last);
    t.add_row(std::move(row));
  }
  rep.add(std::move(t));

  rep.text("\nmap-phase hotspot share (offload candidate selection):\n");
  Table h("hotspot", {"app", "map share Xeon", "map share Atom"});
  double fp_share = 1.0, min_other_share = 1.0;
  for (auto id : wl::all_workloads()) {
    core::RunSpec s;
    s.workload = id;
    s.input_size = bench::default_input(id);
    auto [xeon, atom] = ctx.ch.run_pair(s);
    double share_x = accel::map_hotspot_fraction(xeon);
    if (id == wl::WorkloadId::kFpGrowth) fp_share = share_x;
    else min_other_share = std::min(min_other_share, share_x);
    h.add_row({Cell::txt(wl::short_name(id)), report::fixed(share_x, 2),
               report::fixed(accel::map_hotspot_fraction(atom), 2)});
  }
  rep.add(std::move(h));
  rep.text(
      "\npaper shape: every ratio < 1 beyond ~1x; the effect is weakest for the\n"
      "applications whose map phase is the smallest share (TS, GP).\n");

  rep.check("ratio-monotone-nonincreasing-in-acceleration", monotone, mono_detail);
  rep.check("every-ratio-below-one-at-100x", below_one, below_detail);
  rep.check("fp-weakest-effect-and-smallest-map-share",
            fp_100 > max_other_100 && fp_share < min_other_share,
            strf("FP ratio %.2f (next %.2f), FP map share %.2f (next %.2f)", fp_100,
                 max_other_100, fp_share, min_other_share));
  return rep;
}

}  // namespace

void register_fig14(report::FigureRegistry& r) {
  r.add({"fig14", "", "Post-acceleration Atom-vs-Xeon speedup ratio vs acceleration factor",
         "Sec. 3.4, Fig. 14",
         "ratio saturates below 1; weakest where the map share is smallest (FP here)", build,
         default_specs()});
}

}  // namespace bvl::figs
