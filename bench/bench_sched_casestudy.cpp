// Sec. 3.5 scheduling case study: run a job mix through the paper's
// schedule_workloads pseudo-code and through the measured-argmin
// scheduler against a heterogeneous X-Xeon + Y-Atom pool, and report
// class, allocation and cost per job.
#include "bench_common.hpp"
#include "core/scheduler.hpp"

using namespace bvl;

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bench::print_header("Sec. 3.5 - heterogeneous scheduling case study",
                      "Sec. 3.5 pseudo-code + Table 3 argmin",
                      "pool: 8 Xeon + 8 Atom cores; goal shown per section");

  std::vector<core::JobRequest> jobs;
  for (auto id : wl::all_workloads()) jobs.push_back({id, bench::default_input(id)});

  for (const auto& [goal_name, goal] :
       {std::pair<std::string, core::Goal>{"EDP", core::Goal::edp()},
        std::pair<std::string, core::Goal>{"ED2AP", core::Goal::ed2ap()}}) {
    std::printf("--- goal: minimize %s ---\n", goal_name.c_str());
    TextTable t({"app", "class", "policy alloc", "measured alloc", "energy[J]", "delay[s]"});

    auto decisions = core::plan_jobs(bench::characterizer(), jobs, core::CorePool{8, 8}, goal);
    for (const auto& d : decisions) {
      core::Allocation policy = core::schedule_by_class(d.app_class, goal);
      auto alloc_str = [](const core::Allocation& a) {
        std::string s = a.xeon_cores > 0 ? "X" : "A";
        s += std::to_string(a.xeon_cores > 0 ? a.xeon_cores : a.atom_cores);
        return s;
      };
      t.add_row({wl::short_name(d.job.workload), core::to_string(d.app_class),
                 alloc_str(policy), alloc_str(d.allocation), fmt_fixed(d.energy, 0),
                 fmt_fixed(d.delay, 1)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\n");
  }
  std::printf(
      "paper policy: compute-bound -> many Atom cores; io-bound -> few Xeon cores;\n"
      "hybrid -> 2 Xeon under ED2AP, else many Atom cores.\n");
  return 0;
}
