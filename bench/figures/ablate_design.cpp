// Ablation benches for the design choices DESIGN.md calls out:
//   (a) combiner on/off — why WordCount shuffles kilobytes, not GB;
//   (b) spill-buffer size sweep — the io.sort.mb knob behind the
//       block-size cliffs;
//   (c) MLP/OoO overlap — how much of the Xeon advantage is latency
//       hiding rather than width;
//   (d) map-output compression — TeraSort's tuning, quantified.
#include "figures/fig_util.hpp"
#include "report/emitters.hpp"

namespace bvl::figs {
namespace {

void ablate_combiner(Context& ctx, Report& rep) {
  rep.text(report::header_text("Ablation A - combiner on/off (WordCount, 1 GB, 512 MB blocks)",
                               "engine design choice"));
  Table t("combiner", {"combiner", "server", "total[s]", "shuffle[MB]", "EDP"});
  double shuffle_on = 0, shuffle_off = 0;
  bool total_drops = true;
  for (bool comb : {true, false}) {
    core::RunSpec s;
    s.workload = wl::WorkloadId::kWordCount;
    s.input_size = 1 * GB;
    s.use_combiner = comb;
    for (const auto& server : arch::paper_servers()) {
      perf::RunResult r = ctx.ch.run(s, server);
      double shuffle = ctx.ch.trace(s).reduce_total().shuffle_bytes;
      (comb ? shuffle_on : shuffle_off) = shuffle;
      core::RunSpec other = s;
      other.use_combiner = !comb;
      if (comb && r.total_time() >= ctx.ch.run(other, server).total_time())
        total_drops = false;
      t.add_row({Cell::txt(comb ? "on" : "off"), Cell::txt(server.name),
                 report::fixed(r.total_time(), 1), report::fixed(shuffle / 1e6, 1),
                 report::sci(bench::edp(r))});
    }
  }
  rep.add(std::move(t));
  rep.text("\n");
  rep.check("combiner-cuts-shuffle-and-total",
            shuffle_on < 0.01 * shuffle_off && total_drops,
            strf("shuffle %.1f MB vs %.1f MB", shuffle_on / 1e6, shuffle_off / 1e6));
}

void ablate_spill_buffer(Context& ctx, Report& rep) {
  rep.text(report::header_text("Ablation B - spill buffer (io.sort.mb) sweep (Sort on Atom)",
                               "engine design choice"));
  Table t("spill_buffer", {"buffer", "spills/task", "device[GB]", "total[s]"});
  perf::PerfModel atom(arch::atom_c2758());
  bool spills_down = true, time_down = true;
  double prev_spills = 1e18, prev_time = 1e18;
  for (Bytes buf : {32 * MB, 64 * MB, 100 * MB, 200 * MB, 400 * MB}) {
    core::RunSpec spec;
    spec.workload = wl::WorkloadId::kSort;
    spec.spill_buffer = buf;
    const mr::JobTrace& trace = ctx.ch.trace(spec);
    perf::RunResult r = atom.price(trace, 1.8 * GHz, 4);
    auto m = trace.map_total();
    double spills = m.spills / static_cast<double>(trace.num_map_tasks());
    if (spills >= prev_spills) spills_down = false;
    if (r.total_time() >= prev_time) time_down = false;
    prev_spills = spills;
    prev_time = r.total_time();
    t.add_row({Cell::txt(bench::block_label(buf)), report::fixed(spills, 1),
               report::fixed(m.total_disk_bytes() / 1e9, 2), report::fixed(r.total_time(), 1)});
  }
  rep.add(std::move(t));
  rep.text("\n");
  rep.check("bigger-spill-buffer-fewer-spills-less-time", spills_down && time_down);
}

void ablate_mlp(Report& rep) {
  rep.text(report::header_text("Ablation C - memory-level-parallelism hiding (NB map signature)",
                               "core-model design choice"));
  Table t("mlp", {"mlp_hide", "Xeon IPC", "Atom-width IPC", "gap"});
  const auto& sig = perf::calibration_for("NaiveBayes").map_sig;
  bool gap_up = true;
  double prev_gap = 0;
  for (double hide : {0.0, 0.3, 0.62, 0.8}) {
    arch::ServerConfig xeon = arch::xeon_e5_2420();
    xeon.core.mlp_hide = hide;
    arch::ServerConfig narrow = xeon;  // same machine, little-core width
    narrow.core.issue_width = 2;
    narrow.core.out_of_order = false;
    narrow.core.mlp_hide = hide * 0.5;
    double ipc_x = xeon.make_core_model().ipc(sig, 4e6, 1.8 * GHz);
    double ipc_n = narrow.make_core_model().ipc(sig, 4e6, 1.8 * GHz);
    if (ipc_x / ipc_n <= prev_gap) gap_up = false;
    prev_gap = ipc_x / ipc_n;
    t.add_row({report::fixed(hide, 2), report::fixed(ipc_x, 2), report::fixed(ipc_n, 2),
               report::fixed(ipc_x / ipc_n, 2)});
  }
  rep.add(std::move(t));
  rep.text("\n");
  rep.check("big-core-ipc-gap-grows-with-mlp-hiding", gap_up);
}

void ablate_compression(Context& ctx, Report& rep) {
  rep.text(report::header_text("Ablation D - map-output compression (TeraSort, 1 GB)",
                               "mapreduce.map.output.compress"));
  Table t("compression", {"compress", "server", "map io[s]", "net[s]", "total[s]"});
  // Compression is a pricing-time flag: one TeraSort trace, priced
  // with the flag on and off.
  core::RunSpec spec;
  spec.workload = wl::WorkloadId::kTeraSort;
  mr::JobTrace on_trace = ctx.ch.trace(spec);
  on_trace.config.compress_map_output = true;
  mr::JobTrace off_trace = on_trace;
  off_trace.config.compress_map_output = false;
  bool cuts = true;
  std::string cuts_detail;
  for (bool on : {true, false}) {
    for (const auto& server : arch::paper_servers()) {
      perf::PerfModel model(server);
      perf::RunResult r = model.price(on ? on_trace : off_trace, 1.8 * GHz, 4);
      if (on) {
        perf::RunResult off = model.price(off_trace, 1.8 * GHz, 4);
        if (r.map.io_time >= off.map.io_time || r.reduce.net_time >= off.reduce.net_time ||
            r.total_time() >= off.total_time()) {
          cuts = false;
          cuts_detail += server.name + "; ";
        }
      }
      t.add_row({Cell::txt(on ? "on" : "off"), Cell::txt(server.name),
                 report::fixed(r.map.io_time, 1), report::fixed(r.reduce.net_time, 1),
                 report::fixed(r.total_time(), 1)});
    }
  }
  rep.add(std::move(t));
  rep.check("compression-cuts-io-net-and-total", cuts, cuts_detail);
}

Report build(Context& ctx) {
  Report rep;  // no global header: each ablation prints its own
  rep.paper_ref = "DESIGN.md ablations";
  ablate_combiner(ctx, rep);
  ablate_spill_buffer(ctx, rep);
  ablate_mlp(rep);
  ablate_compression(ctx, rep);
  return rep;
}

/// WordCount with the combiner on and off, Sort at five spill buffers
/// and TeraSort once, each at 1 GB.
std::vector<core::RunSpec> specs() {
  core::RunSpec wc = trace_spec(wl::WorkloadId::kWordCount, 1 * GB);
  core::RunSpec wc_off = wc;
  wc_off.use_combiner = false;
  std::vector<core::RunSpec> out{wc, wc_off};
  for (Bytes buf : {32 * MB, 64 * MB, 100 * MB, 200 * MB, 400 * MB}) {
    core::RunSpec sort = trace_spec(wl::WorkloadId::kSort, 1 * GB);
    sort.spill_buffer = buf;
    out.push_back(sort);
  }
  out.push_back(trace_spec(wl::WorkloadId::kTeraSort, 1 * GB));
  return out;
}

}  // namespace

void register_ablate(report::FigureRegistry& r) {
  r.add({"ablate", "", "Design-choice ablations (combiner, spill buffer, MLP, compression)",
         "DESIGN.md ablations",
         "combiner and compression cut time; bigger spill buffers and MLP hiding behave as modeled",
         build, specs()});
}

}  // namespace bvl::figs
