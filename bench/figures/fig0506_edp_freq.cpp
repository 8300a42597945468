// Figs. 5 & 6: EDP of the entire application on big and little core
// with frequency scaling (Fig. 6: micro-benchmarks; Fig. 5: NB/FP).
// As in the paper, EDP is normalized per workload to Atom @ 1.2 GHz
// with 512 MB blocks.
#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Figs. 5-6 - entire-application EDP vs frequency (normalized)";
  rep.paper_ref = "Sec. 3.2.1, Figs. 5 and 6";
  rep.notes = "normalized to Atom @ 1.2 GHz, 512 MB block, per workload";

  std::vector<std::string> headers{"app"};
  for (const char* sv : {"Atom", "Xeon"})
    for (Hertz f : arch::paper_frequency_sweep())
      headers.push_back(std::string(sv) + " " + bench::freq_label(f));
  Table t("edp_norm", headers);

  bool edp_falls = true, atom_wins = true, sort_favors_xeon = true;
  std::string falls_detail, wins_detail;
  for (auto id : wl::all_workloads()) {
    core::RunSpec base;
    base.workload = id;
    base.input_size = bench::default_input(id);
    base.freq = 1.2 * GHz;
    double norm = bench::edp(ctx.ch.run(base, arch::atom_c2758()));

    std::vector<Cell> row{Cell::txt(wl::short_name(id))};
    for (const auto& server : {arch::atom_c2758(), arch::xeon_e5_2420()}) {
      for (Hertz f : arch::paper_frequency_sweep()) {
        core::RunSpec s = base;
        s.freq = f;
        row.push_back(report::fixed(bench::edp(ctx.ch.run(s, server)) / norm, 2));
      }
      // Shape: endpoints of the frequency sweep (except the documented
      // device-saturated Sort, whose EDP rises on Atom).
      if (id != wl::WorkloadId::kSort) {
        core::RunSpec hi = base;
        hi.freq = 1.8 * GHz;
        if (bench::edp(ctx.ch.run(hi, server)) >= bench::edp(ctx.ch.run(base, server))) {
          edp_falls = false;
          falls_detail += wl::short_name(id) + " on " + server.name + "; ";
        }
      }
    }
    core::RunSpec ref = base;
    ref.freq = 1.8 * GHz;
    auto [xeon, atom] = ctx.ch.run_pair(ref);
    if (id == wl::WorkloadId::kSort) {
      sort_favors_xeon = bench::edp(xeon) < bench::edp(atom);
    } else if (bench::edp(atom) >= bench::edp(xeon)) {
      atom_wins = false;
      wins_detail += wl::short_name(id) + "; ";
    }
    t.add_row(std::move(row));
  }
  rep.add(std::move(t));
  rep.text(
      "\npaper shape: EDP falls as frequency rises; Atom's EDP is lower than Xeon's\n"
      "for every application except Sort.\n");

  rep.check("edp-falls-with-frequency-except-sort", edp_falls, falls_detail);
  rep.check("atom-wins-entire-app-edp-except-sort", atom_wins, wins_detail);
  rep.check("sort-entire-app-edp-favors-xeon", sort_favors_xeon);
  return rep;
}

void do_register(report::FigureRegistry& r, const std::string& id, const std::string& title) {
  r.add({id, "fig0506", title, "Sec. 3.2.1, Figs. 5 and 6",
         "EDP falls with frequency (except Sort); Atom wins entire-app EDP except Sort", build,
         default_specs()});
}

}  // namespace

void register_fig0506(report::FigureRegistry& r) {
  do_register(r, "fig05", "Entire-application EDP vs frequency: real-world apps (NB, FP)");
  do_register(r, "fig06", "Entire-application EDP vs frequency: micro-benchmarks");
}

}  // namespace bvl::figs
