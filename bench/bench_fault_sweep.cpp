// Fault sweep: the six paper workloads under injected failures and
// stragglers, priced on both servers. Scenarios per app:
//   clean     — inactive FaultPlan (the paper's baseline numbers)
//   fail10    — 10% per-attempt task failure, bounded retry + backoff
//   strag     — 20% stragglers at 8x slowdown, speculation OFF
//   strag+spec— same plan with Hadoop-style speculative backups
// The strag-vs-strag+spec delta is the headline: speculation trades a
// little wasted work for a large cut in modeled completion time, and
// the little core — more waves, longer tails — feels stragglers
// harder than the big one.
#include "bench_common.hpp"

using namespace bvl;

namespace {

core::RunSpec base_spec(wl::WorkloadId id) {
  core::RunSpec s;
  s.workload = id;
  s.input_size = bench::default_input(id);
  s.block_size = 128 * MB;  // 8 map tasks micro / 80 real: visible waves
  return s;
}

mr::FaultPlan fail_plan() {
  mr::FaultPlan p;
  p.seed = 7;
  p.fail_prob = 0.10;
  return p;
}

mr::FaultPlan straggler_plan(bool speculative) {
  mr::FaultPlan p;
  p.seed = 7;
  p.straggler_prob = 0.20;
  p.straggler_factor = 8.0;
  p.speculative = speculative;
  return p;
}

double wasted_pct(const mr::JobTrace& t) {
  auto sum = [](const std::vector<mr::TaskTrace>& tasks) {
    double committed = 0, wasted = 0;
    for (const auto& task : tasks) {
      committed += task.counters.input_bytes + task.counters.shuffle_bytes;
      wasted += task.wasted.input_bytes + task.wasted.shuffle_bytes;
    }
    return std::pair<double, double>{committed, wasted};
  };
  auto [mc, mw] = sum(t.map_tasks);
  auto [rc, rw] = sum(t.reduce_tasks);
  double committed = mc + rc;
  return committed > 0 ? 100.0 * (mw + rw) / committed : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, {bench::kJsonFlag});
  std::string json_path = bench::parse_json_flag(argc, argv);
  std::vector<bench::MetricsJsonRow> json_rows;
  bench::print_header(
      "Fault sweep - retry, stragglers and speculative execution",
      "extension (fault model, DESIGN.md); paper baseline = clean column",
      "values: seconds / EDP at 1.8 GHz; deterministic FaultPlan seed 7");

  const std::vector<std::pair<std::string, mr::FaultPlan>> scenarios = {
      {"clean", mr::FaultPlan{}},
      {"fail10", fail_plan()},
      {"strag", straggler_plan(false)},
      {"strag+spec", straggler_plan(true)},
  };

  for (const auto& server : arch::paper_servers()) {
    std::printf("--- %s ---\n", server.name.c_str());
    std::vector<std::string> headers{"app"};
    for (const auto& [name, plan] : scenarios) {
      headers.push_back(name + " t");
      headers.push_back(name + " EDP");
    }
    headers.push_back("spec speedup");
    TextTable t(headers);
    for (auto id : wl::all_workloads()) {
      std::vector<std::string> row{wl::short_name(id)};
      double t_strag = 0, t_spec = 0;
      for (const auto& [name, plan] : scenarios) {
        core::RunSpec s = base_spec(id);
        s.fault = plan;
        perf::RunResult r = bench::characterizer().run(s, server);
        if (name == "strag") t_strag = r.total_time();
        if (name == "strag+spec") t_spec = r.total_time();
        row.push_back(fmt_fixed(r.total_time(), 1));
        row.push_back(fmt_num(bench::edp(r)));
        json_rows.push_back({"fault_sweep/" + server.name + "/" + wl::short_name(id) + "/" + name,
                             {{"time_s", r.total_time()},
                              {"energy_j", r.total_energy()},
                              {"edp", bench::edp(r)}}});
      }
      row.push_back(fmt_fixed(t_strag / t_spec, 2) + "x");
      t.add_row(std::move(row));
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\n");
  }

  // Trace-level fault accounting (machine-independent).
  std::printf("--- fault accounting (trace level) ---\n");
  TextTable acct({"app", "scenario", "tasks", "attempts", "backups", "wasted %", "backoff s"});
  for (auto id : wl::all_workloads()) {
    for (const auto& [name, plan] : scenarios) {
      if (name == "clean") continue;
      core::RunSpec s = base_spec(id);
      s.fault = plan;
      const mr::JobTrace& tr = bench::characterizer().trace(s);
      int tasks = static_cast<int>(tr.map_tasks.size() + tr.reduce_tasks.size());
      acct.add_row({wl::short_name(id), name, fmt_num(tasks), fmt_num(tr.total_attempts()),
                    fmt_num(tr.speculative_backups()), fmt_fixed(wasted_pct(tr), 1),
                    fmt_fixed(tr.total_backoff_s(), 1)});
    }
  }
  std::fputs(acct.render().c_str(), stdout);
  std::printf(
      "\nreading: strag+spec beats strag on time in every row (first-finisher wins);\n"
      "the cost is the wasted %% column — killed attempts' work — and one extra\n"
      "attempt per speculated task. fail10 pays retry waste plus backoff wall-clock.\n");
  if (!json_path.empty() && !bench::write_metrics_json(json_path, json_rows)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
