// Datacenter advisor: the paper's end-to-end use case. Given a mix of
// analytics jobs, classify each, sweep the tuning knobs (block size,
// frequency), and recommend a heterogeneous placement that minimizes
// operational (ED^xP) or capital-inclusive (ED^xAP) cost.
//
//   $ ./datacenter_advisor [edp|ed2p|edap|ed2ap]
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "core/scheduler.hpp"
#include "util/table.hpp"

using namespace bvl;

namespace {

std::optional<core::Goal> goal_from(std::string_view name) {
  if (name == "edp") return core::Goal::edp();
  if (name == "ed2p") return core::Goal::ed2p();
  if (name == "edap") return core::Goal::edap();
  if (name == "ed2ap") return core::Goal::ed2ap();
  return std::nullopt;
}

/// Finds the cheapest (block, freq) point for a workload on a server —
/// the paper's "fine-tune configuration parameters to reduce the
/// number of cores" step.
struct Tuning {
  Bytes block;
  Hertz freq;
  double edp;
};

Tuning tune(core::Characterizer& ch, wl::WorkloadId id, const arch::ServerConfig& server) {
  Tuning best{0, 0, 1e300};
  for (Bytes b : {64 * MB, 128 * MB, 256 * MB, 512 * MB}) {
    for (Hertz f : arch::paper_frequency_sweep()) {
      core::RunSpec s;
      s.workload = id;
      s.input_size = 1 * GB;
      s.block_size = b;
      s.freq = f;
      perf::RunResult r = ch.run(s, server);
      double edp = r.total_energy() * r.total_time();
      if (edp < best.edp) best = {b, f, edp};
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage = "usage: datacenter_advisor [edp|ed2p|edap|ed2ap]\n";
  if (argc > 2) {
    std::fprintf(stderr, "datacenter_advisor: unexpected argument '%s'\n%s", argv[2], usage);
    return 2;
  }
  const char* name = argc > 1 ? argv[1] : "edp";
  std::optional<core::Goal> goal = goal_from(name);
  if (!goal) {
    std::fprintf(stderr, "datacenter_advisor: unknown goal '%s'\n%s", name, usage);
    return 2;
  }
  core::Characterizer ch;

  std::printf("== Heterogeneous datacenter advisor ==\n");
  std::printf("pool: 8 Xeon E5-2420 cores + 8 Atom C2758 cores per rack unit\n\n");

  std::vector<core::JobRequest> jobs;
  for (auto id : wl::all_workloads()) jobs.push_back({id, 1 * GB});
  auto decisions = core::plan_jobs(ch, jobs, core::CorePool{8, 8}, *goal);

  TextTable t({"job", "class", "placement", "energy[J]", "delay[s]", "goal cost"});
  for (const auto& d : decisions) {
    std::string placement = d.allocation.uses_xeon()
                                ? std::to_string(d.allocation.xeon_cores) + " Xeon"
                                : std::to_string(d.allocation.atom_cores) + " Atom";
    t.add_row({wl::long_name(d.job.workload), core::to_string(d.app_class), placement,
               fmt_fixed(d.energy, 0), fmt_fixed(d.delay, 1), fmt_sci(d.goal_cost)});
  }
  std::fputs(t.render().c_str(), stdout);

  std::printf("\n== Knob tuning per placement (block size / frequency with the best EDP) ==\n");
  TextTable k({"job", "server", "best block", "best freq", "EDP gain vs default"});
  for (const auto& d : decisions) {
    arch::ServerConfig server =
        d.allocation.uses_xeon() ? arch::xeon_e5_2420() : arch::atom_c2758();
    Tuning best = tune(ch, d.job.workload, server);
    core::RunSpec def_spec;
    def_spec.workload = d.job.workload;
    def_spec.input_size = 1 * GB;
    def_spec.block_size = 64 * MB;  // Hadoop default
    perf::RunResult def_run = ch.run(def_spec, server);
    double def_edp = def_run.total_energy() * def_run.total_time();
    k.add_row({wl::long_name(d.job.workload), server.name,
               fmt_num(to_mb(best.block)) + " MB", fmt_fixed(best.freq / GHz, 1) + " GHz",
               fmt_fixed(def_edp / best.edp, 2) + "x"});
  }
  std::fputs(k.render().c_str(), stdout);
  std::printf(
      "\nThe tuning column is the paper's closing point: fine-tuning the system and\n"
      "architecture knobs substitutes for throwing more little cores at the job.\n");
  return 0;
}
