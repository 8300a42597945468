// Fig. 4: execution time of the real-world applications (NB, FP)
// across HDFS block size {64..512 MB} x frequency, 10 GB per node.
#include <cmath>

#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Fig. 4 - real-world application execution time vs block size x frequency";
  rep.paper_ref = "Sec. 3.1.1, Fig. 4";
  rep.notes = "values: seconds; 10 GB/node";

  for (const auto& server : arch::paper_servers()) {
    rep.text(strf("--- %s ---\n", server.name.c_str()));
    std::vector<std::string> headers{"app"};
    for (Hertz f : arch::paper_frequency_sweep())
      for (Bytes b : bench::real_block_sweep())
        headers.push_back(bench::freq_label(f) + "/" + bench::block_label(b));
    Table t("time_" + server.name, headers);
    for (auto id : wl::real_world_apps()) {
      std::vector<Cell> row{Cell::txt(wl::short_name(id))};
      for (Hertz f : arch::paper_frequency_sweep()) {
        for (Bytes b : bench::real_block_sweep()) {
          core::RunSpec s;
          s.workload = id;
          s.input_size = 10 * GB;
          s.block_size = b;
          s.freq = f;
          row.push_back(report::fixed(ctx.ch.run(s, server).total_time(), 0));
        }
      }
      t.add_row(std::move(row));
    }
    rep.add(std::move(t));
    rep.text("\n");
  }
  rep.text(
      "paper shape: 64 MB (the default) is not optimal; block sizes up to 256 MB\n"
      "reduce execution time, beyond that the effect is negligible for these\n"
      "compute-intensive applications.\n");

  bool beats_64 = true, plateau = true;
  std::string beat_detail, plateau_detail;
  for (auto id : wl::real_world_apps()) {
    for (const auto& server : arch::paper_servers()) {
      core::RunSpec s;
      s.workload = id;
      s.input_size = 10 * GB;
      auto time_at = [&](Bytes b) {
        core::RunSpec p = s;
        p.block_size = b;
        return ctx.ch.run(p, server).total_time();
      };
      double t64 = time_at(64 * MB), t256 = time_at(256 * MB), t512 = time_at(512 * MB);
      if (t256 >= t64) {
        beats_64 = false;
        beat_detail += wl::short_name(id) + " on " + server.name + "; ";
      }
      if (std::abs(t512 - t256) / t256 > 0.05) {
        plateau = false;
        plateau_detail += strf("%s on %s: %.0fs vs %.0fs; ", wl::short_name(id).c_str(),
                               server.name.c_str(), t256, t512);
      }
    }
  }
  rep.check("256mb-beats-the-64mb-default", beats_64, beat_detail);
  rep.check("beyond-256mb-negligible", plateau, plateau_detail);
  return rep;
}

std::vector<core::RunSpec> specs() {
  std::vector<core::RunSpec> out;
  for (auto id : wl::real_world_apps())
    for (Bytes b : bench::real_block_sweep()) out.push_back(trace_spec(id, 10 * GB, b));
  return out;
}

}  // namespace

void register_fig04(report::FigureRegistry& r) {
  r.add({"fig04", "", "Real-world application execution time vs block size x frequency",
         "Sec. 3.1.1, Fig. 4",
         "64 MB default never optimal; gains up to 256 MB, negligible beyond", build, specs()});
}

}  // namespace bvl::figs
