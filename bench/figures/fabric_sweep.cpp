// Fabric sweep (extension): what the paper's single-switch testbed
// could not ask — does the heterogeneous rack's EDP win survive a
// datacenter fabric? Each iso-power rack is split across two racks of
// a leaf-spine topology (the hetero rack the natural way: Xeons in
// one rack, Atoms in the other) and the full mix replays under the
// earliest-finish policy — the one that splits jobs across big and
// little nodes — while the spine oversubscription sweeps 1:1 -> 8:1.
// The infinite-fabric row is the pre-fabric model (shuffle charged
// only at the destination NIC); every modeled row routes per-source
// shuffle flows through NIC/ToR/spine ServiceQueues (DESIGN.md 3f).
#include "figures/fig_util.hpp"
#include "core/cluster_sim.hpp"

namespace bvl::figs {
namespace {

std::vector<core::JobRequest> fabric_jobs() {
  // The mix-on-rack queue (bench_mix_racks): both classes, two waves
  // of the common apps, FP-Growth excluded for the same reason.
  return {{wl::WorkloadId::kWordCount, 10 * GB}, {wl::WorkloadId::kSort, 10 * GB},
          {wl::WorkloadId::kGrep, 10 * GB},      {wl::WorkloadId::kTeraSort, 10 * GB},
          {wl::WorkloadId::kNaiveBayes, 10 * GB}, {wl::WorkloadId::kWordCount, 10 * GB},
          {wl::WorkloadId::kSort, 10 * GB},      {wl::WorkloadId::kGrep, 10 * GB}};
}

/// Two-rack leaf-spine layout for one comparison rack: one fabric
/// rack per node type; a homogeneous rack splits into two halves so
/// the spine carries traffic everywhere.
sim::Topology two_rack_topology(const std::vector<core::NodeSpec>& rack, double spine_oversub) {
  sim::Topology topo;
  topo.spine_oversub = spine_oversub;
  if (rack.size() >= 2) {
    int r = 0;
    for (const auto& spec : rack) {
      for (int i = 0; i < spec.count; ++i) topo.rack_of.push_back(r);
      ++r;
    }
  } else {
    int n = rack[0].count;
    for (int i = 0; i < n; ++i) topo.rack_of.push_back(i < n / 2 ? 0 : 1);
  }
  return topo;
}

std::vector<double> spine_sweep() { return {1.0, 2.0, 4.0, 8.0}; }

Report build(Context& ctx) {
  Report rep;
  rep.title = "Fabric sweep - spine oversubscription x iso-power rack under earliest-finish";
  rep.paper_ref = "extension of Sec. 3.5 (topology-aware shuffle)";
  rep.notes =
      "two-rack leaf-spine; inf = infinite fabric (pre-fabric analytic NIC term);\n"
      "s:1 = modeled fabric, spine carries 1/s of the hosts' aggregate NIC rate";
  const core::MixPolicy policy = ctx.policy.value_or(core::MixPolicy::kEarliestFinish);
  if (ctx.policy.has_value()) {
    rep.notes += "\npolicy override (--policy): " + core::to_string(policy);
  }

  auto racks = core::comparison_racks(4);
  const std::vector<std::string> rack_names{"all-big", "all-little", "hetero"};
  auto jobs = fabric_jobs();

  Table t("fabric_sweep", {"rack", "spine", "makespan[s]", "energy[MJ]", "EDP", "spine util",
                           "xrack frac", "split jobs"});
  // base[rack] = infinite fabric; results[rack][k] = modeled at
  // spine_sweep()[k]. Cell (rack, 0) fills the base slot and cell
  // (rack, 1 + k) the modeled one, all fanned out together.
  const std::vector<double> spines = spine_sweep();
  std::vector<core::MixResult> base(racks.size());
  std::vector<std::vector<core::MixResult>> results(racks.size(),
                                                    std::vector<core::MixResult>(spines.size()));
  const std::size_t per_rack = 1 + spines.size();
  fan_out(ctx, racks.size() * per_rack, [&](std::size_t i) {
    const std::size_t r = i / per_rack, j = i % per_rack;
    core::MixOptions opts;
    if (j > 0) {
      opts.fabric.modeled = true;
      opts.fabric.topology = two_rack_topology(racks[r], spines[j - 1]);
    }
    core::MixResult& slot = j == 0 ? base[r] : results[r][j - 1];
    slot = core::simulate_mix(ctx.ch, jobs, racks[r], policy, kCellThreads, opts);
  });
  for (std::size_t r = 0; r < racks.size(); ++r) {
    auto add_row = [&](const char* spine, const core::MixResult& res) {
      int split = 0;
      for (const auto& s : res.schedule) split += s.split_across_types() ? 1 : 0;
      double xfrac = res.fabric.bytes_injected > 0
                         ? res.fabric.cross_rack_bytes / res.fabric.bytes_injected
                         : 0.0;
      t.add_row({Cell::txt(rack_names[r]), Cell::txt(spine), report::fixed(res.makespan, 1),
                 report::fixed(res.total_energy / 1e6, 2), report::sci(res.edxp(1)),
                 report::fixed(res.fabric.spine_utilization, 3), report::fixed(xfrac, 3),
                 Cell::txt(fmt_num(split))});
    };
    add_row("inf", base[r]);
    for (std::size_t k = 0; k < spines.size(); ++k) {
      add_row(strf("%.0f:1", spines[k]).c_str(), results[r][k]);
    }
  }
  rep.add(std::move(t));
  rep.text(
      "\nthe fabric cannot beat the infinite-fabric model - every flow still\n"
      "pays the destination NIC in full - and at 1:1 it barely trails it: the\n"
      "NICs, not the core, are the bottleneck. Oversubscribing the spine\n"
      "drains the all-little rack first (iso-power hands it the most nodes,\n"
      "so cross-rack shuffle is most of its traffic), while the hetero rack's\n"
      "EDP win over all-big survives the whole 1:1 -> 8:1 sweep: its makespan\n"
      "is reduce-bound on the Atom tier's NICs long before the spine, and the\n"
      "all-big rack degrades alongside it.\n");

  // Flow conservation on every modeled run: bytes injected at send()
  // equal bytes delivered by last-link completion (summation order
  // differs, hence the relative tolerance).
  bool conserved = true;
  std::string cons_detail;
  for (std::size_t r = 0; r < racks.size(); ++r) {
    for (const auto& res : results[r]) {
      double in = res.fabric.bytes_injected, out = res.fabric.bytes_delivered;
      if (!(res.fabric.modeled && res.fabric.flows > 0 &&
            std::abs(in - out) <= 1e-9 * std::max(in, 1.0))) {
        conserved = false;
        cons_detail += strf("%s: in %.0f out %.0f; ", rack_names[r].c_str(), in, out);
      }
    }
  }
  rep.check("flow-conservation-bytes-injected-equal-delivered", conserved,
            conserved ? strf("%d modeled runs", static_cast<int>(racks.size() *
                                                                 spine_sweep().size()))
                      : cons_detail);

  // The modeled fabric can only add time: at every oversubscription
  // the makespan is no better than the infinite-fabric replay of the
  // same rack (destination-NIC demand is identical by construction).
  bool floored = true;
  std::string floor_detail;
  for (std::size_t r = 0; r < racks.size(); ++r) {
    for (std::size_t k = 0; k < results[r].size(); ++k) {
      if (results[r][k].makespan < base[r].makespan * (1 - 1e-9)) {
        floored = false;
        floor_detail += strf("%s@%.0f:1 %.1fs < inf %.1fs; ", rack_names[r].c_str(),
                             spine_sweep()[k], results[r][k].makespan, base[r].makespan);
      }
    }
  }
  rep.check("modeled-fabric-never-beats-infinite-fabric", floored, floor_detail);

  // Saturating the spine must hurt monotonically: makespan is
  // non-decreasing along the sweep on every rack.
  bool monotone = true;
  std::string mono_detail;
  for (std::size_t r = 0; r < racks.size(); ++r) {
    for (std::size_t k = 1; k < results[r].size(); ++k) {
      if (results[r][k].makespan < results[r][k - 1].makespan * (1 - 1e-9)) monotone = false;
    }
    mono_detail += strf("%s %.0fs->%.0fs; ", rack_names[r].c_str(), results[r].front().makespan,
                        results[r].back().makespan);
  }
  rep.check("makespan-non-decreasing-in-spine-oversubscription", monotone, mono_detail);

  // The sweep actually exercises the spine: hetero cross-rack traffic
  // exists and the spine's busy share of the makespan grows from 1:1
  // to 8:1 (each crossing byte costs 8x the spine seconds).
  const auto& het = results[2];
  rep.check("hetero-spine-utilization-grows-with-oversubscription",
            het.front().fabric.cross_rack_bytes > 0 &&
                het.back().fabric.spine_utilization > het.front().fabric.spine_utilization,
            strf("util %.3f -> %.3f, %.1f GB cross-rack",
                 het.front().fabric.spine_utilization, het.back().fabric.spine_utilization,
                 het.front().fabric.cross_rack_bytes / 1e9));

  // The headline: earliest-finish splitting keeps its EDP win over the
  // all-big rack at every spine oversubscription — the provable
  // no-crossover claim. (Both racks lean on the spine; the hetero
  // rack's reduce tier is NIC-bound before it is spine-bound.)
  bool wins_everywhere = true;
  std::string edp_detail;
  for (std::size_t k = 0; k < het.size(); ++k) {
    bool win = het[k].edxp(1) < results[0][k].edxp(1);
    wins_everywhere = wins_everywhere && win;
    edp_detail += strf("%.0f:1 %.2e vs %.2e; ", spine_sweep()[k], het[k].edxp(1),
                       results[0][k].edxp(1));
  }
  rep.check("hetero-edp-win-over-all-big-survives-every-oversubscription", wins_everywhere,
            edp_detail);

  return rep;
}

}  // namespace

void register_fabric(report::FigureRegistry& r) {
  r.add({"fabric", "", "Fabric sweep: spine oversubscription x rack mix, modeled shuffle fabric",
         "extension of Sec. 3.5 (topology-aware shuffle fabric)",
         "flows conserve bytes; the modeled fabric floors at the infinite-fabric replay; "
         "makespan degrades monotonically with spine oversubscription; hetero's EDP win over "
         "all-big survives 1:1 -> 8:1 (no crossover)",
         build, core::replay_specs(fabric_jobs())});
}

}  // namespace bvl::figs
