// Power-cap sweep (extension): the paper sweeps DVFS as a static
// per-run knob; here frequency is run-time state. The three iso-power
// racks replay the mix-on-rack queue under one shared rack-level draw
// ceiling (RAPL-style: nodes throttle down the DVFS ladder when the
// modeled rack draw would exceed the cap, and defer task admission
// once even the bottom level does not fit), swept as fractions of the
// all-big rack's uncapped peak — the iso-cap question a shared PDU
// budget actually asks of competing rack designs. A second table
// compares the DVFS governors (performance / ondemand / powersave) on
// the hetero rack with no cap. Every row is metered: the energy
// column integrates the modeled rack draw (idle floor included) over
// the replay, and the cap invariant — draw never exceeds the cap at
// any event timestamp — is machine-checked on every capped run
// (DESIGN.md 3g).
#include "figures/fig_util.hpp"
#include "core/cluster_sim.hpp"

namespace bvl::figs {
namespace {

std::vector<core::JobRequest> powercap_jobs() {
  // The mix-on-rack queue again (bench_mix_racks, fabric sweep) so
  // the trace cache is shared across figure builds.
  return {{wl::WorkloadId::kWordCount, 10 * GB}, {wl::WorkloadId::kSort, 10 * GB},
          {wl::WorkloadId::kGrep, 10 * GB},      {wl::WorkloadId::kTeraSort, 10 * GB},
          {wl::WorkloadId::kNaiveBayes, 10 * GB}, {wl::WorkloadId::kWordCount, 10 * GB},
          {wl::WorkloadId::kSort, 10 * GB},      {wl::WorkloadId::kGrep, 10 * GB}};
}

/// Shared cap budgets as fractions of the all-big rack's uncapped
/// peak draw — iso-cap, not iso-relative: every rack answers to the
/// same wattage. The tightest value stays above every rack's cap-loop
/// liveness floor (idle + one bottom-level task, asserted at run time
/// by the PowerRuntime itself).
std::vector<double> cap_fractions() { return {0.95, 0.85, 0.75, 0.65}; }

Report build(Context& ctx) {
  Report rep;
  rep.title = "Power-cap sweep - shared rack draw ceiling x iso-power rack, and DVFS governors";
  rep.paper_ref = "extension of Sec. 3.2/3.5 (DVFS as run-time state, not a per-run knob)";
  rep.notes =
      "cap = fraction of the all-big rack's uncapped peak modeled draw, applied\n"
      "to all three racks (a shared PDU budget); energy is metered (integral of\n"
      "modeled rack draw, idle floor included); uncap rows replay with the cap\n"
      "loop armed but an unreachable budget";

  auto racks = core::comparison_racks(4);
  const std::vector<std::string> rack_names{"all-big", "all-little", "hetero"};
  auto jobs = powercap_jobs();

  auto run = [&](std::size_t r, const power::PowerPlanSpec& spec) {
    core::MixOptions opts;
    opts.power = spec;
    return core::simulate_mix(ctx.ch, jobs, racks[r], core::MixPolicy::kEarliestFinish,
                              kCellThreads, opts);
  };

  // Two baselines per rack: the historical power-inactive replay
  // (zero extra events), and the same replay with the cap loop armed
  // at an unreachable budget — metering alone must not perturb the
  // timeline, and the pair proves it. They fan out first: the caps
  // below are fractions of base[0]'s peak.
  power::PowerPlanSpec meter_only;
  meter_only.rack_cap_w = 1e9;
  std::vector<core::MixResult> plain(racks.size());
  std::vector<core::MixResult> base(racks.size());
  fan_out(ctx, 2 * racks.size(), [&](std::size_t i) {
    const std::size_t r = i / 2;
    if (i % 2 == 0) plain[r] = run(r, {});
    else base[r] = run(r, meter_only);
  });
  const Watts ref_peak = base[0].power.peak_draw;

  // results[rack][k] = capped at cap_fractions()[k] * ref_peak;
  // gres[g] = the hetero rack, uncapped, under govs[g]. One fan-out.
  std::vector<Watts> caps;
  for (double f : cap_fractions()) caps.push_back(f * ref_peak);
  const std::vector<power::GovernorKind> govs{power::GovernorKind::kPerformance,
                                             power::GovernorKind::kOndemand,
                                             power::GovernorKind::kPowersave};
  std::vector<std::vector<core::MixResult>> results(racks.size(),
                                                    std::vector<core::MixResult>(caps.size()));
  std::vector<core::MixResult> gres(govs.size());
  const std::size_t capped_cells = racks.size() * caps.size();
  fan_out(ctx, capped_cells + govs.size(), [&](std::size_t i) {
    power::PowerPlanSpec spec;
    if (i < capped_cells) {
      const std::size_t r = i / caps.size(), k = i % caps.size();
      spec.rack_cap_w = caps[k];
      results[r][k] = run(r, spec);
    } else {
      spec.governor = govs[i - capped_cells];
      gres[i - capped_cells] = run(2, spec);
    }
  });

  Table t("powercap_sweep", {"rack", "cap", "cap[W]", "makespan[s]", "energy[MJ]", "peak[W]",
                             "slowdown", "lvl chg"});
  for (std::size_t r = 0; r < racks.size(); ++r) {
    auto add_row = [&](const char* cap_label, Watts cap_w, const core::MixResult& res) {
      t.add_row({Cell::txt(rack_names[r]), Cell::txt(cap_label),
                 cap_w > 0 ? report::fixed(cap_w, 0) : Cell::txt("-"),
                 report::fixed(res.makespan, 1),
                 report::fixed(res.power.metered_energy / 1e6, 2),
                 report::fixed(res.power.peak_draw, 0),
                 report::fixed(res.makespan / base[r].makespan, 3),
                 Cell::txt(fmt_num(res.power.level_changes))});
    };
    add_row("uncap", 0, base[r]);
    for (std::size_t k = 0; k < caps.size(); ++k) {
      add_row(strf("%.0f%%", cap_fractions()[k] * 100).c_str(), caps[k], results[r][k]);
    }
  }
  rep.add(std::move(t));

  // Governor comparison on the hetero rack, uncapped: the governors
  // are the other half of the run-time frequency story.
  Table g("governor_mix", {"governor", "makespan[s]", "energy[MJ]", "peak[W]", "ExT",
                          "lvl chg"});
  for (std::size_t k = 0; k < govs.size(); ++k) {
    const auto& res = gres[k];
    g.add_row({Cell::txt(power::to_string(govs[k])), report::fixed(res.makespan, 1),
               report::fixed(res.power.metered_energy / 1e6, 2),
               report::fixed(res.power.peak_draw, 0),
               report::sci(res.power.metered_energy * res.makespan),
               Cell::txt(fmt_num(res.power.level_changes))});
  }
  rep.add(std::move(g));

  rep.text(
      "\na shared wattage budget is where rack composition stops being a\n"
      "provisioning argument and becomes a throttling one. The all-little\n"
      "rack's uncapped peak already sits near the tightest budget, so it\n"
      "sails through the sweep - its makespan never moves, and at 65% it\n"
      "sheds peak watts through a handful of level changes without shedding\n"
      "time. The all-big rack pays immediately: every binding budget forces\n"
      "its four Xeons down the ladder together and the mix stretches. The\n"
      "hetero rack splits the difference exactly the way the paper's thesis\n"
      "predicts - at 85% and 75% its Atom tier keeps absorbing work at full\n"
      "speed while the budget squeezes only the Xeon pair, so it beats\n"
      "all-big on both time and metered energy; by 65% its draw is Xeon-\n"
      "dominated and the two converge. (A loose cap can even beat uncapped\n"
      "on the all-big rack - throttling perturbs the earliest-finish packing,\n"
      "the classic scheduling anomaly, which is why the monotonicity chain\n"
      "starts at the first capped row.) Among governors, race-to-idle wins\n"
      "on both axes: every second a lower level adds burns the whole rack's\n"
      "idle floor, so performance dominates ondemand dominates powersave on\n"
      "time AND metered energy - the run-time restatement of the paper's\n"
      "finding that idle power decides the energy argument.\n");

  // Arming the meter without a binding cap leaves the timeline
  // byte-identical to the historical power-inactive replay: same
  // makespan, same nominal energy, zero level changes.
  bool noop = true;
  std::string noop_detail;
  for (std::size_t r = 0; r < racks.size(); ++r) {
    if (!(base[r].makespan == plain[r].makespan &&
          base[r].total_energy == plain[r].total_energy &&
          base[r].power.level_changes == 0 && !plain[r].power.active)) {
      noop = false;
      noop_detail += strf("%s %.3fs vs %.3fs; ", rack_names[r].c_str(), base[r].makespan,
                          plain[r].makespan);
    }
  }
  rep.check("metering-alone-leaves-the-timeline-unchanged", noop,
            noop ? "3 racks, makespan and energy equal, 0 level changes" : noop_detail);

  // The cap invariant, machine-checked on every capped run: the
  // modeled rack draw never exceeded the cap at any event timestamp.
  bool capped_ok = true;
  std::string cap_detail;
  for (std::size_t r = 0; r < racks.size(); ++r) {
    for (std::size_t k = 0; k < results[r].size(); ++k) {
      const auto& p = results[r][k].power;
      if (!(p.active && !p.cap_exceeded && p.peak_draw <= caps[k] * (1 + 1e-9))) {
        capped_ok = false;
        cap_detail += strf("%s@%.0fW peak %.1fW exceeded=%d; ", rack_names[r].c_str(),
                           caps[k], p.peak_draw, p.cap_exceeded ? 1 : 0);
      }
    }
  }
  rep.check("modeled-draw-never-exceeds-cap-at-any-event", capped_ok,
            capped_ok ? strf("%d capped runs", static_cast<int>(racks.size() * caps.size()))
                      : cap_detail);

  // Tightening the shared budget can only cost time: within the
  // capped sweep the makespan is non-decreasing on every rack, and
  // the tightest cap is slower than uncapped wherever it binds. (A
  // *loose* cap may beat uncapped outright — throttling perturbs the
  // earliest-finish packing, the classic scheduling anomaly — so the
  // uncap row is excluded from the monotonicity chain.)
  bool monotone = true;
  std::string mono_detail;
  for (std::size_t r = 0; r < racks.size(); ++r) {
    for (std::size_t k = 1; k < results[r].size(); ++k) {
      if (results[r][k].makespan < results[r][k - 1].makespan * (1 - 1e-9)) monotone = false;
    }
    mono_detail += strf("%s %.0fs->%.0fs; ", rack_names[r].c_str(),
                        results[r].front().makespan, results[r].back().makespan);
  }
  rep.check("makespan-non-decreasing-as-the-shared-cap-tightens", monotone, mono_detail);

  // The Xeon racks answer to the budget first: at the tightest cap
  // both Xeon-bearing racks have throttled (levels moved, peak pulled
  // below uncapped), while the all-little rack — whose uncapped peak
  // already sits near the tightest budget — barely notices.
  const auto& tb = results[0].back();
  const auto& tl = results[1].back();
  const auto& th = results[2].back();
  rep.check("tightest-cap-throttles-both-xeon-racks",
            tb.power.level_changes > 0 && tb.power.peak_draw < base[0].power.peak_draw &&
                th.power.level_changes > 0 && th.power.peak_draw < base[2].power.peak_draw,
            strf("all-big %d changes peak %.0f->%.0fW; hetero %d changes peak %.0f->%.0fW; "
                 "all-little %d changes",
                 tb.power.level_changes, base[0].power.peak_draw, tb.power.peak_draw,
                 th.power.level_changes, base[2].power.peak_draw, th.power.peak_draw,
                 tl.power.level_changes));

  // Little cores absorb the ceiling outright: the all-little rack's
  // makespan never moves under any shared budget in the sweep — even
  // at the tightest, where it does throttle levels, it sheds watts
  // without shedding time.
  bool little_flat = true;
  std::string flat_detail;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    if (results[1][k].makespan > base[1].makespan * (1 + 1e-3)) little_flat = false;
    flat_detail += strf("%.0f%%: %.1fs; ", cap_fractions()[k] * 100,
                        results[1][k].makespan);
  }
  rep.check("all-little-holds-its-makespan-under-every-shared-budget", little_flat,
            strf("uncapped %.1fs - ", base[1].makespan) + flat_detail);

  // The headline: at the budgets that bind the Xeon racks without
  // starving them (85%, 75%), the hetero rack beats the all-big rack
  // on BOTH makespan and metered energy — its Atom tier keeps
  // absorbing work at full speed while the budget squeezes the Xeons.
  // At the loosest budget the cap binds neither; at the tightest the
  // two converge (hetero's Xeon pair dominates its draw) — prose, not
  // a pinned shape.
  bool hetero_wins = true;
  std::string win_detail;
  for (std::size_t k = 1; k <= 2; ++k) {
    const auto& big = results[0][k];
    const auto& het = results[2][k];
    if (!(het.makespan < big.makespan &&
          het.power.metered_energy < big.power.metered_energy)) hetero_wins = false;
    win_detail += strf("%.0f%%: %.1fs/%.2fMJ vs %.1fs/%.2fMJ; ",
                       cap_fractions()[k] * 100, het.makespan,
                       het.power.metered_energy / 1e6, big.makespan,
                       big.power.metered_energy / 1e6);
  }
  rep.check("hetero-beats-all-big-on-time-and-energy-at-binding-budgets", hetero_wins,
            "hetero vs all-big - " + win_detail);

  // Race-to-idle wins on this rack: the performance governor beats
  // ondemand, and ondemand beats powersave, on makespan AND metered
  // energy — the iso-power idle floor burns for every extra second a
  // lower level adds, the run-time restatement of the paper's finding
  // that idle power decides the energy argument.
  rep.check("race-to-idle-performance<=ondemand<=powersave-on-time-and-energy",
            gres[0].makespan <= gres[1].makespan * (1 + 1e-9) &&
                gres[1].makespan <= gres[2].makespan * (1 + 1e-9) &&
                gres[0].power.metered_energy <= gres[1].power.metered_energy * (1 + 1e-9) &&
                gres[1].power.metered_energy <= gres[2].power.metered_energy * (1 + 1e-9),
            strf("time %.1f/%.1f/%.1fs energy %.2f/%.2f/%.2fMJ", gres[0].makespan,
                 gres[1].makespan, gres[2].makespan, gres[0].power.metered_energy / 1e6,
                 gres[1].power.metered_energy / 1e6, gres[2].power.metered_energy / 1e6));

  return rep;
}

}  // namespace

void register_powercap(report::FigureRegistry& r) {
  r.add({"powercap", "",
         "Power-cap sweep: shared rack draw ceiling x rack mix, plus DVFS governor comparison",
         "extension of Sec. 3.2/3.5 (frequency as run-time state)",
         "modeled rack draw never exceeds the cap at any event timestamp; metering alone "
         "leaves the timeline unchanged; makespan degrades monotonically as the shared cap "
         "tightens; the tightest cap throttles both Xeon racks while all-little holds its "
         "makespan; hetero beats all-big on time and energy at the binding budgets; "
         "race-to-idle: performance dominates ondemand dominates powersave on both time "
         "and metered energy",
         build, core::replay_specs(powercap_jobs())});
}

}  // namespace bvl::figs
