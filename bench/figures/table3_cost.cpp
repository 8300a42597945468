// Table 3: operational and capital cost (EDP, ED2P, EDAP, ED2AP) of
// the Hadoop applications with M in {2,4,6,8} cores/mappers on Atom
// and Xeon — the paper's scientific-notation table, reproduced row
// for row.
#include <algorithm>

#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Table 3 - operational and capital cost vs core count";
  rep.paper_ref = "Sec. 3.5, Table 3";
  rep.notes = "512 MB blocks, 1.8 GHz, mappers = cores";

  struct MetricDef {
    const char* name;
    const char* slug;
    int x;
    bool area;
  };
  std::vector<MetricDef> metrics{
      {"EDP (J s)", "edp", 1, false},
      {"ED2P (J s^2)", "ed2p", 2, false},
      {"EDAP (J mm^2 s)", "edap", 1, true},
      {"ED2AP (J mm^2 s^2)", "ed2ap", 2, true},
  };

  auto sweep_for = [&](wl::WorkloadId id, const arch::ServerConfig& server) {
    core::RunSpec spec;
    spec.workload = id;
    spec.input_size = bench::default_input(id);
    return core::core_count_sweep(ctx.ch, spec, server, core::paper_core_counts());
  };

  for (const auto& md : metrics) {
    rep.text(strf("--- %s ---\n", md.name));
    Table t(md.slug, {"app", "Atom M2", "Atom M4", "Atom M6", "Atom M8", "Xeon M2", "Xeon M4",
                      "Xeon M6", "Xeon M8"});
    for (auto id : wl::all_workloads()) {
      std::vector<Cell> row{Cell::txt(wl::short_name(id))};
      for (const auto& server : {arch::atom_c2758(), arch::xeon_e5_2420()}) {
        for (const auto& p : sweep_for(id, server))
          row.push_back(report::sci(md.area ? p.metrics.edxap(md.x) : p.metrics.edxp(md.x)));
      }
      t.add_row(std::move(row));
    }
    rep.add(std::move(t));
    rep.text("\n");
  }
  rep.text(
      "paper shapes: more cores lower ED^xP in most cases (largest EDP win for Sort\n"
      "on Atom, ~5x from M2 to M8); EDAP instead rises with core count for the\n"
      "micro-benchmarks but keeps falling for the heavyweight real-world apps.\n");

  // Shape assertions from the core-count sweeps (raw values).
  auto edp_at = [&](wl::WorkloadId id, const arch::ServerConfig& server, int cores) {
    for (const auto& p : sweep_for(id, server))
      if (p.cores == cores) return p.metrics.edp();
    return 0.0;
  };
  auto edap_at = [&](wl::WorkloadId id, const arch::ServerConfig& server, int cores) {
    for (const auto& p : sweep_for(id, server))
      if (p.cores == cores) return p.metrics.edap();
    return 0.0;
  };
  using W = wl::WorkloadId;

  bool m4_wins = true;
  std::string m4_detail;
  for (auto id : {W::kNaiveBayes, W::kFpGrowth}) {
    for (const auto& server : arch::paper_servers()) {
      if (edp_at(id, server, 4) >= edp_at(id, server, 2)) {
        m4_wins = false;
        m4_detail += wl::short_name(id) + " on " + server.name + "; ";
      }
    }
  }
  rep.check("real-apps-m4-edp-beats-m2", m4_wins, m4_detail);

  bool nb_monotone = true;
  for (const auto& server : arch::paper_servers())
    for (int m = 2; m < 8; m += 2)
      if (edp_at(W::kNaiveBayes, server, m + 2) >= edp_at(W::kNaiveBayes, server, m))
        nb_monotone = false;
  rep.check("nb-edp-monotone-down-m2-to-m8", nb_monotone);

  double nb_win = edp_at(W::kNaiveBayes, arch::atom_c2758(), 2) /
                  edp_at(W::kNaiveBayes, arch::atom_c2758(), 8);
  double max_other_win = 0;
  for (auto id : wl::all_workloads()) {
    if (id == W::kNaiveBayes) continue;
    max_other_win = std::max(max_other_win, edp_at(id, arch::atom_c2758(), 2) /
                                                edp_at(id, arch::atom_c2758(), 8));
  }
  rep.check("nb-largest-atom-edp-win-from-cores", nb_win > max_other_win,
            strf("NB M2/M8 %.2fx vs next largest %.2fx", nb_win, max_other_win));

  bool nb_edap_falls = edap_at(W::kNaiveBayes, arch::atom_c2758(), 8) <
                       edap_at(W::kNaiveBayes, arch::atom_c2758(), 2);
  bool ts_edap_rises = edap_at(W::kTeraSort, arch::atom_c2758(), 8) >
                       edap_at(W::kTeraSort, arch::atom_c2758(), 2);
  rep.check("edap-falls-for-nb-but-rises-for-ts-on-atom", nb_edap_falls && ts_edap_rises,
            strf("NB %.2E -> %.2E, TS %.2E -> %.2E",
                 edap_at(W::kNaiveBayes, arch::atom_c2758(), 2),
                 edap_at(W::kNaiveBayes, arch::atom_c2758(), 8),
                 edap_at(W::kTeraSort, arch::atom_c2758(), 2),
                 edap_at(W::kTeraSort, arch::atom_c2758(), 8)));
  return rep;
}

}  // namespace

void register_table3(report::FigureRegistry& r) {
  r.add({"table3", "", "Operational and capital cost vs core count",
         "Sec. 3.5, Table 3",
         "more cores lower ED^xP for the heavy apps; area term reverses the trend for micros",
         build, default_specs()});
}

}  // namespace bvl::figs
