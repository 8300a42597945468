// Figs. 10 & 11: normalized execution-time breakdown (map / reduce /
// others) plus total time across input data sizes {1, 10, 20 GB} per
// node on both servers (Fig. 10: WC, TS; Fig. 11: NB, FP).
#include <algorithm>

#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Figs. 10-11 - execution breakdown and total vs input data size";
  rep.paper_ref = "Sec. 3.3, Figs. 10 and 11";
  rep.notes = "512 MB blocks, 1.8 GHz";

  Table t("breakdown", {"app", "server", "data", "map%", "reduce%", "others%", "total[s]"});
  std::vector<wl::WorkloadId> apps{wl::WorkloadId::kWordCount, wl::WorkloadId::kTeraSort,
                                   wl::WorkloadId::kNaiveBayes, wl::WorkloadId::kFpGrowth};
  bool map_dominated = true, fp_reduce_grows = true;
  std::string dom_detail, fp_detail;
  for (auto id : apps) {
    for (const auto& server : arch::paper_servers()) {
      double fp_red_1gb = 0;
      for (Bytes d : {1 * GB, 10 * GB, 20 * GB}) {
        core::RunSpec s;
        s.workload = id;
        s.input_size = d;
        perf::RunResult r = ctx.ch.run(s, server);
        double total = r.total_time();
        double map_pct = 100 * r.map.time / total;
        double red_pct = 100 * r.reduce.time / total;
        t.add_row({Cell::txt(wl::short_name(id)), Cell::txt(server.name),
                   Cell::txt(fmt_num(to_gb(d)) + "GB"), report::fixed(map_pct, 1),
                   report::fixed(red_pct, 1), report::fixed(100 * r.other.time / total, 1),
                   report::fixed(total, 1)});
        if ((id == wl::WorkloadId::kWordCount || id == wl::WorkloadId::kNaiveBayes) &&
            map_pct < 90.0) {
          map_dominated = false;
          dom_detail += strf("%s %s %.1f%%; ", wl::short_name(id).c_str(), server.name.c_str(),
                             map_pct);
        }
        if (id == wl::WorkloadId::kFpGrowth) {
          if (d == 1 * GB) fp_red_1gb = red_pct;
          else if (d == 20 * GB && red_pct <= fp_red_1gb) {
            fp_reduce_grows = false;
            fp_detail += strf("%s %.1f%% -> %.1f%%; ", server.name.c_str(), fp_red_1gb, red_pct);
          }
        }
      }
    }
  }
  rep.add(std::move(t));

  rep.text("\n1GB -> 20GB growth factors (paper: Atom grows more than Xeon):\n");
  Table g("growth", {"app", "Xeon growth", "Atom growth"});
  bool atom_grows_more = true;
  std::string growth_detail;
  for (auto id : wl::all_workloads()) {
    core::RunSpec s1, s20;
    s1.workload = s20.workload = id;
    s1.input_size = 1 * GB;
    s20.input_size = 20 * GB;
    auto [x1, a1] = ctx.ch.run_pair(s1);
    auto [x20, a20] = ctx.ch.run_pair(s20);
    double gx = x20.total_time() / x1.total_time();
    double ga = a20.total_time() / a1.total_time();
    if (id != wl::WorkloadId::kSort && ga <= gx) {
      atom_grows_more = false;
      growth_detail += strf("%s %.2fx vs %.2fx; ", wl::short_name(id).c_str(), ga, gx);
    }
    g.add_row({Cell::txt(wl::short_name(id)), report::fixed(gx, 2, "x"),
               report::fixed(ga, 2, "x")});
  }
  rep.add(std::move(g));
  rep.text(
      "\npaper: GP 10.15x/3.45x, WC 7.75x/7.75x, TS 27.15x/26.07x,\n"
      "NB 8.59x/7.22x, FP 7.97x/5.96x (Atom/Xeon growth, 1->20GB)\n");

  rep.check("wc-nb-map-dominated-at-every-size", map_dominated, dom_detail);
  rep.check("fp-reduce-share-grows-with-data-size", fp_reduce_grows, fp_detail);
  rep.check("atom-growth-exceeds-xeon-except-sort", atom_grows_more, growth_detail);
  return rep;
}

/// The breakdown apps at 1, 10 and 20 GB, then every other workload at
/// 1 and 20 GB (the growth check).
std::vector<core::RunSpec> specs() {
  std::vector<core::RunSpec> out;
  const std::vector<wl::WorkloadId> apps{wl::WorkloadId::kWordCount, wl::WorkloadId::kTeraSort,
                                         wl::WorkloadId::kNaiveBayes, wl::WorkloadId::kFpGrowth};
  for (auto id : apps)
    for (Bytes d : {1 * GB, 10 * GB, 20 * GB}) out.push_back(trace_spec(id, d));
  for (auto id : wl::all_workloads()) {
    if (std::find(apps.begin(), apps.end(), id) != apps.end()) continue;
    for (Bytes d : {1 * GB, 20 * GB}) out.push_back(trace_spec(id, d));
  }
  return out;
}

void do_register(report::FigureRegistry& r, const std::string& id, const std::string& title) {
  r.add({id, "fig1011", title, "Sec. 3.3, Figs. 10 and 11",
         "WC/NB stay map-dominated; FP shifts to reduce; Atom's time grows faster than Xeon's",
         build, specs()});
}

}  // namespace

void register_fig1011(report::FigureRegistry& r) {
  do_register(r, "fig10", "Execution breakdown and total vs data size: WC, TS");
  do_register(r, "fig11", "Execution breakdown and total vs data size: NB, FP");
}

}  // namespace bvl::figs
