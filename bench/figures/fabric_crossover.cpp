// Fabric crossover (extension): the experiment the fabric sweep could
// not produce. PR 7 proved that at the paper's effective-1GbE
// endpoints the spine never binds — per-node NICs saturate first, so
// the hetero rack's EDP win survives any oversubscription and
// placement never matters to the fabric. This figure upgrades the
// ENDPOINTS (10/40 GbE presets, wimpy-node achievable fractions)
// while holding the spine capacity ABSOLUTE — anchored at the all-big
// rack's 1GbE NIC aggregate divided by s — the classic datacenter
// upgrade path where servers get fast NICs and the core does not.
// That pushes the bottleneck into the switching layer, and placement
// finally bites: class-blind earliest-finish scatters each job's maps
// across racks and drowns its shuffle in the spine's ECMP group,
// while the rack-local policy herds jobs onto home racks and keeps
// the hetero win alive. Both claims are machine-checked below.
#include <algorithm>
#include <cmath>

#include "core/cluster_sim.hpp"
#include "figures/fig_util.hpp"
#include "sim/network/nic_preset.hpp"

namespace bvl::figs {
namespace {

std::vector<core::JobRequest> crossover_jobs() {
  // The fabric sweep's 8-job mix: both classes, two waves of the
  // common apps.
  return {{wl::WorkloadId::kWordCount, 10 * GB}, {wl::WorkloadId::kSort, 10 * GB},
          {wl::WorkloadId::kGrep, 10 * GB},      {wl::WorkloadId::kTeraSort, 10 * GB},
          {wl::WorkloadId::kNaiveBayes, 10 * GB}, {wl::WorkloadId::kWordCount, 10 * GB},
          {wl::WorkloadId::kSort, 10 * GB},      {wl::WorkloadId::kGrep, 10 * GB}};
}

/// Two-rack leaf-spine layout with a 4-link ECMP spine. Unlike the
/// fabric sweep's class-per-rack split, nodes stripe across the racks
/// so EACH rack mixes both classes: locality and heterogeneity do not
/// conflict, and a placement policy that keeps a job inside one rack
/// still exploits big and little cores. (Class-per-rack wiring forces
/// every big-map -> little-reduce fetch over the spine, so no policy
/// can dodge a saturated core there.)
sim::Topology crossover_topology(const std::vector<core::NodeSpec>& rack, double spine_oversub) {
  sim::Topology topo;
  topo.spine_oversub = spine_oversub;
  topo.spine_multipath = 4;
  int flat = 0;
  for (const auto& spec : rack) {
    for (int i = 0; i < spec.count; ++i) topo.rack_of.push_back(flat++ % 2);
  }
  return topo;
}

/// Aggregate endpoint rate (bytes/s) of a comparison rack under a NIC
/// preset — the numerator of the effective spine oversubscription.
double endpoint_aggregate(Context& ctx, const std::vector<core::NodeSpec>& rack,
                          sim::NicPresetId id) {
  const sim::NicPreset& preset = sim::nic_preset(id);
  double agg = 0;
  for (const auto& spec : rack) {
    agg += spec.count * preset.endpoint_bytes_per_s(ctx.ch.cluster_config().net_mbps,
                                                    spec.server.network_efficiency);
  }
  return agg;
}

const std::vector<sim::NicPresetId>& presets() {
  static const std::vector<sim::NicPresetId> p{sim::NicPresetId::k1GbE, sim::NicPresetId::k10GbE,
                                              sim::NicPresetId::k40GbE};
  return p;
}

std::vector<double> spine_anchors() { return {8.0, 32.0}; }

Report build(Context& ctx) {
  Report rep;
  rep.title = "Fabric crossover - NIC generation x absolute spine x placement policy";
  rep.paper_ref = "extension of Sec. 3.5 (endpoint upgrades vs a fixed core)";
  rep.notes =
      "spine capacity is ABSOLUTE: B/s = the all-big rack's 1GbE NIC aggregate / s,\n"
      "held fixed while endpoints upgrade (1GbE -> 10/40GbE presets); racks stripe\n"
      "both node classes; 4-link ECMP spine; inf = infinite fabric at that endpoint\n"
      "generation; EF = earliest-finish (class-blind), RL = rack-local\n"
      "(fabric-feedback-aware; also class-blind)";

  auto all_racks = core::comparison_racks(4);
  // [0] all-big (4 Xeon), [2] hetero (2 Xeon + 7 Atom, iso-idle-power).
  const std::vector<std::size_t> rack_ix{0, 2};
  const std::vector<std::string> rack_names{"all-big", "hetero"};
  const std::vector<core::MixPolicy> policies{core::MixPolicy::kEarliestFinish,
                                              core::MixPolicy::kRackLocal};
  const std::vector<std::string> policy_names{"EF", "RL"};
  auto jobs = crossover_jobs();

  // The absolute spine anchor: the all-big rack's 1GbE aggregate.
  const double anchor_bps = endpoint_aggregate(ctx, all_racks[0], sim::NicPresetId::k1GbE);

  Table t("fabric_crossover", {"rack", "nic", "spine", "policy", "makespan[s]", "energy[MJ]",
                               "EDP", "spine util", "xrack frac"});

  // results[rack][preset][anchor][policy]; base[rack][preset] = the
  // infinite-fabric replay at that endpoint generation.
  std::vector<std::vector<core::MixResult>> base(
      rack_ix.size(), std::vector<core::MixResult>(presets().size()));
  std::vector<std::vector<std::vector<std::vector<core::MixResult>>>> results(
      rack_ix.size(),
      std::vector<std::vector<std::vector<core::MixResult>>>(
          presets().size(), std::vector<std::vector<core::MixResult>>(
                                spine_anchors().size(), std::vector<core::MixResult>(2))));

  auto xrack_frac = [](const core::MixResult& res) {
    return res.fabric.bytes_injected > 0
               ? res.fabric.cross_rack_bytes / res.fabric.bytes_injected
               : 0.0;
  };
  auto add_row = [&](std::size_t r, const char* nic, const std::string& spine,
                     const char* policy, const core::MixResult& res) {
    t.add_row({Cell::txt(rack_names[r]), Cell::txt(nic), Cell::txt(spine), Cell::txt(policy),
               report::fixed(res.makespan, 1), report::fixed(res.total_energy / 1e6, 2),
               report::sci(res.edxp(1)), report::fixed(res.fabric.spine_utilization, 3),
               report::fixed(xrack_frac(res), 3)});
  };

  // One fan-out over every (rack, preset): cell 0 of each fills the
  // infinite-fabric base slot, cell 1 + a * policies + pol the modeled
  // one at spine anchor a under policy pol.
  const std::size_t per_preset = 1 + spine_anchors().size() * policies.size();
  fan_out(ctx, rack_ix.size() * presets().size() * per_preset, [&](std::size_t i) {
    const std::size_t r = i / (presets().size() * per_preset);
    const std::size_t p = i / per_preset % presets().size();
    const std::size_t j = i % per_preset;
    const auto& rack = all_racks[rack_ix[r]];
    core::MixOptions opts;
    opts.fabric.nic_preset = presets()[p];
    if (j == 0) {
      base[r][p] = core::simulate_mix(ctx.ch, jobs, rack, core::MixPolicy::kEarliestFinish,
                                      kCellThreads, opts);
      return;
    }
    const std::size_t a = (j - 1) / policies.size(), pol = (j - 1) % policies.size();
    // agg / (anchor/s): the preset's aggregate over the fixed core.
    const double oversub =
        endpoint_aggregate(ctx, rack, presets()[p]) / (anchor_bps / spine_anchors()[a]);
    opts.fabric.modeled = true;
    opts.fabric.topology = crossover_topology(rack, oversub);
    results[r][p][a][pol] =
        core::simulate_mix(ctx.ch, jobs, rack, policies[pol], kCellThreads, opts);
  });
  for (std::size_t r = 0; r < rack_ix.size(); ++r) {
    for (std::size_t p = 0; p < presets().size(); ++p) {
      const char* nic = sim::nic_preset(presets()[p]).name;
      add_row(r, nic, "inf", "EF", base[r][p]);
      for (std::size_t a = 0; a < spine_anchors().size(); ++a) {
        for (std::size_t pol = 0; pol < policies.size(); ++pol) {
          add_row(r, nic, strf("B/%.0f", spine_anchors()[a]), policy_names[pol].c_str(),
                  results[r][p][a][pol]);
        }
      }
    }
  }
  rep.add(std::move(t));
  rep.text(
      "\nat the conventionally provisioned core (B/8 - the 1GbE-era 8:1) the\n"
      "spine stays loose at every endpoint generation and the hetero rack\n"
      "keeps its EDP win under class-blind placement: PR7's no-crossover\n"
      "regime. Freezing the core while the endpoints upgrade (B/32) flips the\n"
      "bottleneck into the switching layer: the spine binds, and class-blind\n"
      "earliest-finish - which scatters every job's tasks across racks -\n"
      "hands ~half its shuffle to a saturated ECMP group and forfeits the\n"
      "hetero EDP win to the best class-blind all-big configuration.\n"
      "Rack-local placement reads the fabric backlog, herds each job into a\n"
      "home rack (both classes live in both racks, so locality costs no\n"
      "heterogeneity), drives the cross-rack fraction to zero, and restores\n"
      "the hetero win - beating even its own infinite-fabric 1GbE baseline.\n");

  // --- machine checks -----------------------------------------------------

  // Conservation ledger on EVERY modeled multipath run.
  bool conserved = true;
  int modeled_runs = 0;
  std::string cons_detail;
  for (std::size_t r = 0; r < rack_ix.size(); ++r) {
    for (std::size_t p = 0; p < presets().size(); ++p) {
      for (std::size_t a = 0; a < spine_anchors().size(); ++a) {
        for (std::size_t pol = 0; pol < policies.size(); ++pol) {
          const auto& f = results[r][p][a][pol].fabric;
          ++modeled_runs;
          if (!(f.modeled && f.flows > 0 &&
                std::abs(f.bytes_injected - f.bytes_delivered) <=
                    1e-9 * std::max(f.bytes_injected, 1.0))) {
            conserved = false;
            cons_detail += strf("%s/%s; ", rack_names[r].c_str(),
                                sim::nic_preset(presets()[p]).name);
          }
        }
      }
    }
  }
  rep.check("flow-conservation-holds-on-every-multipath-run", conserved,
            conserved ? strf("%d modeled runs, 4-link ECMP spine", modeled_runs) : cons_detail);

  // The class-blind baseline at each (preset, anchor): the better of
  // EF and RL on the all-big rack. Neither policy consults core class,
  // so this is the bar the hetero rack must beat to claim an EDP win,
  // however the all-big competitor is operated.
  auto allbig_best = [&](std::size_t p, std::size_t a) {
    return std::min(results[0][p][a][0].edxp(1), results[0][p][a][1].edxp(1));
  };

  // The conventionally provisioned core (B/8): loose at every endpoint
  // generation, and the hetero win holds under class-blind
  // earliest-finish — the regime the 1GbE fabric sweep proved.
  bool loose_win = true;
  std::string loose_detail;
  for (std::size_t p = 0; p < presets().size(); ++p) {
    bool win = results[1][p][0][0].edxp(1) < allbig_best(p, 0);
    loose_win = loose_win &&
                results[1][p][0][0].fabric.spine_utilization < 0.5 && win;
    loose_detail += strf("%s EF %.2e vs best-big %.2e (util %.3f); ",
                         sim::nic_preset(presets()[p]).name, results[1][p][0][0].edxp(1),
                         allbig_best(p, 0), results[1][p][0][0].fabric.spine_utilization);
  }
  rep.check("loose-core-keeps-hetero-ef-win-at-every-nic", loose_win, loose_detail);

  // The frozen core binds under upgraded endpoints: hetero-EF spine
  // utilization at the tight anchor crosses 0.5 and rises from 1GbE
  // to every faster preset (the upgraded endpoints inject the same
  // shuffle into the same core in less time).
  bool binds = true;
  std::string bind_detail;
  const double util_1gbe = results[1][0][1][0].fabric.spine_utilization;
  for (std::size_t p = 1; p < presets().size(); ++p) {
    const double util = results[1][p][1][0].fabric.spine_utilization;
    binds = binds && util > 0.5 && util > util_1gbe;
    bind_detail += strf("%s %.3f; ", sim::nic_preset(presets()[p]).name, util);
  }
  rep.check("spine-binds-at-upgraded-endpoints-on-the-frozen-core",
            binds, strf("1GbE %.3f -> %s(tight anchor B/32)", util_1gbe, bind_detail.c_str()));

  // THE CROSSOVER: at >=10GbE endpoints with the binding spine,
  // class-blind earliest-finish forfeits the hetero EDP win...
  bool crossed = true;
  std::string cross_detail;
  for (std::size_t p = 1; p < presets().size(); ++p) {
    bool lost = results[1][p][1][0].edxp(1) > allbig_best(p, 1);
    crossed = crossed && lost;
    cross_detail += strf("%s@B/32 EF %.2e vs best-big %.2e; ",
                         sim::nic_preset(presets()[p]).name, results[1][p][1][0].edxp(1),
                         allbig_best(p, 1));
  }
  rep.check("crossover-hetero-ef-loses-edp-win-at-10-40gbe-binding-spine", crossed,
            cross_detail);

  // ...and rack-local placement restores it — at the binding anchor
  // AND at the loose one (it never pays for its locality).
  bool recovered = true;
  std::string rec_detail;
  for (std::size_t p = 1; p < presets().size(); ++p) {
    for (std::size_t a = 0; a < spine_anchors().size(); ++a) {
      bool win = results[1][p][a][1].edxp(1) < allbig_best(p, a);
      recovered = recovered && win;
      rec_detail += strf("%s@B/%.0f RL %.2e vs best-big %.2e; ",
                         sim::nic_preset(presets()[p]).name, spine_anchors()[a],
                         results[1][p][a][1].edxp(1), allbig_best(p, a));
    }
  }
  rep.check("rack-local-restores-hetero-edp-win-at-10-40gbe", recovered, rec_detail);

  // Mechanism: rack-local wins BY locality — on the hetero rack it
  // ships a strictly smaller cross-rack fraction than earliest-finish
  // at every upgraded-endpoint config.
  bool local = true;
  std::string local_detail;
  for (std::size_t p = 1; p < presets().size(); ++p) {
    for (std::size_t a = 0; a < spine_anchors().size(); ++a) {
      double ef = xrack_frac(results[1][p][a][0]), rl = xrack_frac(results[1][p][a][1]);
      local = local && rl < ef;
      local_detail += strf("%s@B/%.0f %.3f -> %.3f; ", sim::nic_preset(presets()[p]).name,
                           spine_anchors()[a], ef, rl);
    }
  }
  rep.check("rack-local-cuts-hetero-cross-rack-fraction", local, local_detail);

  return rep;
}

}  // namespace

void register_fabric_crossover(report::FigureRegistry& r) {
  r.add({"fabric_crossover", "",
         "Fabric crossover: NIC presets x absolute spine x placement policy",
         "extension of Sec. 3.5 (endpoint upgrades against a fixed core)",
         "ECMP ledger conserves on every run; at the conventionally provisioned core the "
         "hetero EDP win holds at every NIC generation; at 10/40GbE endpoints the frozen "
         "core binds, earliest-finish forfeits the hetero win to the best class-blind "
         "all-big config and rack-local restores it by cutting the cross-rack fraction",
         build, core::replay_specs(crossover_jobs())});
}

}  // namespace bvl::figs
