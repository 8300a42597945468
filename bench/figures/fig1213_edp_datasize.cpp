// Figs. 12 & 13: EDP of the entire application (Fig. 12) and of the
// map/reduce phases (Fig. 13) across input data sizes {1, 10, 20 GB}.
// Normalized per workload to Atom @ 1 GB as in the paper's plots.
#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Figs. 12-13 - EDP vs input data size (entire app and per phase)";
  rep.paper_ref = "Sec. 3.3, Figs. 12 and 13";
  rep.notes = "normalized per workload to Atom @ 1 GB; 512 MB blocks, 1.8 GHz";

  std::vector<Bytes> sizes{1 * GB, 10 * GB, 20 * GB};
  auto edp_at = [&](wl::WorkloadId id, const arch::ServerConfig& server, Bytes d) {
    core::RunSpec s;
    s.workload = id;
    s.input_size = d;
    return bench::edp(ctx.ch.run(s, server));
  };

  rep.text("--- Fig. 12: entire application ---\n");
  Table t("edp_app", {"app", "A 1GB", "A 10GB", "A 20GB", "X 1GB", "X 10GB", "X 20GB"});
  bool rises = true, favors_xeon = true, sort_narrows = true;
  std::string rise_detail, favor_detail;
  for (auto id : wl::all_workloads()) {
    double norm = edp_at(id, arch::atom_c2758(), 1 * GB);
    std::vector<Cell> row{Cell::txt(wl::short_name(id))};
    for (const auto& server : {arch::atom_c2758(), arch::xeon_e5_2420()}) {
      double prev = 0;
      for (Bytes d : sizes) {
        double v = edp_at(id, server, d);
        row.push_back(report::num(v / norm));
        if (v <= prev) {
          rises = false;
          rise_detail += wl::short_name(id) + " on " + server.name + "; ";
        }
        prev = v;
      }
    }
    double ax_small = edp_at(id, arch::atom_c2758(), 1 * GB) / edp_at(id, arch::xeon_e5_2420(), 1 * GB);
    double ax_big = edp_at(id, arch::atom_c2758(), 20 * GB) / edp_at(id, arch::xeon_e5_2420(), 20 * GB);
    if (id == wl::WorkloadId::kSort) {
      sort_narrows = ax_big < ax_small;
    } else if (ax_big <= ax_small) {
      favors_xeon = false;
      favor_detail += strf("%s %.2f -> %.2f; ", wl::short_name(id).c_str(), ax_small, ax_big);
    }
    t.add_row(std::move(row));
  }
  rep.add(std::move(t));

  rep.text("\n--- Fig. 13: map and reduce phase ---\n");
  Table p("edp_phase", {"app", "phase", "A 1GB", "A 10GB", "A 20GB", "X 1GB", "X 10GB", "X 20GB"});
  for (auto id : wl::all_workloads()) {
    for (int phase = 0; phase < 2; ++phase) {
      auto phase_edp = [&](const perf::RunResult& r) {
        return phase == 0 ? bench::edp(r.map) : bench::edp(r.reduce);
      };
      core::RunSpec base;
      base.workload = id;
      base.input_size = 1 * GB;
      double norm = phase_edp(ctx.ch.run(base, arch::atom_c2758()));
      std::vector<Cell> row{Cell::txt(wl::short_name(id)),
                            Cell::txt(phase == 0 ? "map" : "reduce")};
      for (const auto& server : {arch::atom_c2758(), arch::xeon_e5_2420()}) {
        for (Bytes d : sizes) {
          core::RunSpec s = base;
          s.input_size = d;
          double v = phase_edp(ctx.ch.run(s, server));
          row.push_back(norm > 0 ? report::num(v / norm) : Cell::missing());
        }
      }
      p.add_row(std::move(row));
    }
  }
  rep.add(std::move(p));
  rep.text(
      "\npaper shape: EDP rises with data size on both architectures; the growth\n"
      "progressively favors the big core for every application except Sort.\n");

  rep.check("edp-rises-with-data-size", rises, rise_detail);
  rep.check("growth-favors-big-core-except-sort", favors_xeon, favor_detail);
  rep.check("sort-atom-xeon-gap-narrows-with-data-size", sort_narrows);
  return rep;
}

std::vector<core::RunSpec> specs() {
  std::vector<core::RunSpec> out;
  for (auto id : wl::all_workloads())
    for (Bytes d : {1 * GB, 10 * GB, 20 * GB}) out.push_back(trace_spec(id, d));
  return out;
}

void do_register(report::FigureRegistry& r, const std::string& id, const std::string& title) {
  r.add({id, "fig1213", title, "Sec. 3.3, Figs. 12 and 13",
         "EDP rises with data size; the A/X EDP ratio drifts toward Xeon except for Sort", build,
         specs()});
}

}  // namespace

void register_fig1213(report::FigureRegistry& r) {
  do_register(r, "fig12", "Entire-application EDP vs input data size");
  do_register(r, "fig13", "Map/reduce phase EDP vs input data size");
}

}  // namespace bvl::figs
