// Fig. 2: EDP, ED2P and ED3P ratio (Atom vs Xeon) for SPEC, PARSEC
// and Hadoop applications. The Hadoop ratios route through the
// validated core::edxp_value like every other metric in the repo.
#include <cmath>

#include "baselines/proxy.hpp"
#include "baselines/suite.hpp"
#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Fig. 2 - ED^xP ratio Atom vs Xeon per suite";
  rep.paper_ref = "Sec. 2.2, Fig. 2";
  rep.notes = "ratio > 1: Atom's metric is worse (Xeon preferred)";

  Table t("edxp_ratio", {"suite", "EDP A/X", "ED2P A/X", "ED3P A/X"});

  double spec_r1 = 0, spec_r3 = 0;
  auto add_suite = [&](const std::string& name, const std::vector<base::ProxyKernel>& suite) {
    auto a = base::run_suite(name, suite, arch::atom_c2758(), 1.8 * GHz);
    auto x = base::run_suite(name, suite, arch::xeon_e5_2420(), 1.8 * GHz);
    if (name == "Avg_Spec") {
      spec_r1 = a.edxp(1) / x.edxp(1);
      spec_r3 = a.edxp(3) / x.edxp(3);
    }
    t.add_row({Cell::txt(name), report::fixed(a.edxp(1) / x.edxp(1), 2),
               report::fixed(a.edxp(2) / x.edxp(2), 2), report::fixed(a.edxp(3) / x.edxp(3), 2)});
  };
  add_suite("Avg_Spec", base::spec_suite());
  add_suite("Avg_Parsec", base::parsec_suite());

  double r1 = 0, r2 = 0, r3 = 0;
  int n = 0;
  for (auto id : wl::all_workloads()) {
    core::RunSpec s;
    s.workload = id;
    s.input_size = bench::default_input(id);
    auto [xeon, atom] = ctx.ch.run_pair(s);
    double ta = atom.total_time(), tx = xeon.total_time();
    double ea = atom.total_energy(), ex = xeon.total_energy();
    r1 += core::edxp_value(ea, ta, 1) / core::edxp_value(ex, tx, 1);
    r2 += core::edxp_value(ea, ta, 2) / core::edxp_value(ex, tx, 2);
    r3 += core::edxp_value(ea, ta, 3) / core::edxp_value(ex, tx, 3);
    ++n;
  }
  t.add_row({Cell::txt("Avg_Hadoop"), report::fixed(r1 / n, 2), report::fixed(r2 / n, 2),
             report::fixed(r3 / n, 2)});
  rep.add(std::move(t));

  rep.text(
      "\npaper shape: with tighter performance constraints (higher x) the big core\n"
      "closes in; the ED^xP gap is markedly smaller for Hadoop than for SPEC/PARSEC.\n");

  rep.check("big-core-closes-in-as-x-grows-spec", spec_r1 < spec_r3,
            strf("SPEC A/X ratio %.2f at x=1 vs %.2f at x=3", spec_r1, spec_r3));
  rep.check("big-core-closes-in-as-x-grows-hadoop", r1 / n < r3 / n,
            strf("Hadoop A/X ratio %.2f at x=1 vs %.2f at x=3", r1 / n, r3 / n));
  rep.check("hadoop-edp-gap-smaller-than-spec",
            std::abs(r1 / n - 1.0) < std::abs(spec_r1 - 1.0),
            strf("|ratio-1|: Hadoop %.2f vs SPEC %.2f", std::abs(r1 / n - 1.0),
                 std::abs(spec_r1 - 1.0)));
  return rep;
}

}  // namespace

void register_fig02(report::FigureRegistry& r) {
  r.add({"fig02", "", "ED^xP ratio Atom vs Xeon for SPEC, PARSEC and Hadoop",
         "Sec. 2.2, Fig. 2",
         "A/X ratio grows with the delay exponent; Hadoop's EDP gap closer to parity than SPEC's",
         build, default_specs()});
}

}  // namespace bvl::figs
