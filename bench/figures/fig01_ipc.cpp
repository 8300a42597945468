// Fig. 1: IPC of SPEC, PARSEC and Hadoop applications on the little
// (Atom) and big (Xeon) core.
#include "baselines/proxy.hpp"
#include "baselines/suite.hpp"
#include "figures/fig_util.hpp"

namespace bvl::figs {
namespace {

Report build(Context& ctx) {
  Report rep;
  rep.title = "Fig. 1 - IPC of SPEC, PARSEC and Hadoop on little/big core";
  rep.paper_ref = "Sec. 2.1, Fig. 1";

  Table t("ipc", {"suite", "Atom IPC", "Xeon IPC", "Xeon/Atom"});

  auto add_suite = [&](const std::string& name, const std::vector<base::ProxyKernel>& suite) {
    double ipc_a = base::run_suite(name, suite, arch::atom_c2758(), 1.8 * GHz).mean_ipc();
    double ipc_x = base::run_suite(name, suite, arch::xeon_e5_2420(), 1.8 * GHz).mean_ipc();
    t.add_row({Cell::txt(name), report::fixed(ipc_a, 2), report::fixed(ipc_x, 2),
               report::fixed(ipc_x / ipc_a, 2)});
    return std::pair{ipc_a, ipc_x};
  };

  auto [spec_a, spec_x] = add_suite("Avg_Spec", base::spec_suite());
  add_suite("Avg_Parsec", base::parsec_suite());

  double hadoop_a = 0, hadoop_x = 0;
  for (auto id : wl::all_workloads()) {
    core::RunSpec s;
    s.workload = id;
    s.input_size = bench::default_input(id);
    auto [xeon, atom] = ctx.ch.run_pair(s);
    hadoop_a += atom.whole().avg_ipc;
    hadoop_x += xeon.whole().avg_ipc;
  }
  hadoop_a /= static_cast<double>(wl::all_workloads().size());
  hadoop_x /= static_cast<double>(wl::all_workloads().size());
  t.add_row({Cell::txt("Avg_Hadoop"), report::fixed(hadoop_a, 2), report::fixed(hadoop_x, 2),
             report::fixed(hadoop_x / hadoop_a, 2)});
  rep.add(std::move(t));

  rep.text(strf("\npaper: Hadoop IPC ~2.16x below SPEC on big core, ~1.55x on little;\n"
                "measured: %.2fx below on big, %.2fx on little\n",
                spec_x / hadoop_x, spec_a / hadoop_a));

  rep.check("hadoop-ipc-below-spec-on-big-core", hadoop_x < spec_x,
            strf("Hadoop %.3f vs SPEC %.3f on Xeon", hadoop_x, spec_x));
  rep.check("hadoop-ipc-below-spec-on-little-core", hadoop_a < spec_a,
            strf("Hadoop %.3f vs SPEC %.3f on Atom", hadoop_a, spec_a));
  rep.check("ipc-gap-smaller-for-hadoop-than-spec", hadoop_x / hadoop_a < spec_x / spec_a,
            strf("big/little IPC ratio %.3f (Hadoop) vs %.3f (SPEC)", hadoop_x / hadoop_a,
                 spec_x / spec_a));
  return rep;
}

}  // namespace

void register_fig01(report::FigureRegistry& r) {
  r.add({"fig01", "", "IPC of SPEC, PARSEC and Hadoop on the little and big core",
         "Sec. 2.1, Fig. 1",
         "Hadoop IPC below SPEC on both cores; big/little IPC gap smaller for Hadoop", build,
         default_specs()});
}

}  // namespace bvl::figs
