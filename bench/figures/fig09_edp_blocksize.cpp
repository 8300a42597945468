// Fig. 9: EDP ratio of Xeon to Atom across HDFS block sizes at
// 1.8 GHz — how tuning the block size moves the EDP gap.
#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Fig. 9 - Xeon/Atom EDP ratio vs HDFS block size @1.8 GHz";
  rep.paper_ref = "Sec. 3.2.3, Fig. 9";
  rep.notes = "ratio > 1: Atom more energy-efficient";

  auto ratio_at = [&](wl::WorkloadId id, Bytes b) {
    core::RunSpec s;
    s.workload = id;
    s.input_size = bench::default_input(id);
    s.block_size = b;
    auto [xeon, atom] = ctx.ch.run_pair(s);
    return bench::edp(xeon) / bench::edp(atom);
  };

  std::vector<std::string> headers{"app"};
  for (Bytes b : bench::micro_block_sweep()) headers.push_back(bench::block_label(b));
  Table t("edp_ratio", headers);

  for (auto id : wl::all_workloads()) {
    std::vector<Cell> row{Cell::txt(wl::short_name(id))};
    for (Bytes b : bench::micro_block_sweep()) {
      if (b == 32 * MB && (id == wl::WorkloadId::kNaiveBayes || id == wl::WorkloadId::kFpGrowth)) {
        row.push_back(Cell::missing());  // real apps start at 64 MB (Sec. 3.1.1)
        continue;
      }
      row.push_back(report::fixed(ratio_at(id, b), 2));
    }
    t.add_row(std::move(row));
  }
  rep.add(std::move(t));
  rep.text(
      "\npaper shape: increasing the block size widens the EDP gap between\n"
      "Atom and Xeon (Atom benefits more from the memory-subsystem relief).\n");

  bool atom_wins = true;
  std::string wins_detail;
  for (auto id : wl::all_workloads()) {
    if (id == wl::WorkloadId::kSort) continue;
    double r = ratio_at(id, 512 * MB);
    if (r <= 1.0) {
      atom_wins = false;
      wins_detail += strf("%s %.2f; ", wl::short_name(id).c_str(), r);
    }
  }
  rep.check("atom-more-efficient-at-512mb-except-sort", atom_wins, wins_detail);

  double st_small = ratio_at(wl::WorkloadId::kSort, 32 * MB);
  double st_big = ratio_at(wl::WorkloadId::kSort, 512 * MB);
  rep.check("sort-flips-to-xeon-as-blocks-grow", st_small > 1.0 && st_big < 1.0,
            strf("ST ratio %.2f at 32 MB vs %.2f at 512 MB", st_small, st_big));
  return rep;
}

}  // namespace

void register_fig09(report::FigureRegistry& r) {
  r.add({"fig09", "", "Xeon/Atom EDP ratio vs HDFS block size",
         "Sec. 3.2.3, Fig. 9",
         "Atom stays ahead on EDP at large blocks for every app except Sort, which flips to Xeon",
         build, block_sweep_specs()});
}

}  // namespace bvl::figs
