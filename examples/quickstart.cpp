// Quickstart: run one Hadoop-style job on the engine, price it on
// both server architectures, and print the big-vs-little verdict.
//
//   $ ./quickstart [WC|ST|GP|TS|NB|FP]
#include <cstdio>
#include <optional>

#include "core/characterizer.hpp"
#include "core/classifier.hpp"
#include "core/metrics.hpp"
#include "util/table.hpp"

using namespace bvl;

int main(int argc, char** argv) {
  const char* usage = "usage: quickstart [WC|ST|GP|TS|NB|FP]\n";
  if (argc > 2) {
    std::fprintf(stderr, "quickstart: unexpected argument '%s'\n%s", argv[2], usage);
    return 2;
  }
  const char* app = argc > 1 ? argv[1] : "WC";
  std::optional<wl::WorkloadId> id = wl::find_workload(app);
  if (!id) {
    std::fprintf(stderr, "quickstart: unknown workload '%s'\n%s", app, usage);
    return 2;
  }

  // 1. Describe the experiment: workload, data size per node, HDFS
  //    block size, operating frequency, task slots.
  core::RunSpec spec;
  spec.workload = *id;
  spec.input_size = 1 * GB;
  spec.block_size = 256 * MB;
  spec.freq = 1.8 * GHz;

  // 2. The Characterizer runs the job once on the MapReduce engine
  //    (real code over generated data) and prices the trace on any
  //    server model.
  core::Characterizer ch;
  auto [xeon, atom] = ch.run_pair(spec);

  std::printf("workload: %s   input: %.0f MB/node   block: %.0f MB   freq: %.1f GHz\n\n",
              wl::long_name(spec.workload).c_str(), to_mb(spec.input_size),
              to_mb(spec.block_size), spec.freq / GHz);

  TextTable t({"server", "map[s]", "reduce[s]", "other[s]", "total[s]", "power[W]", "energy[J]",
               "EDP"});
  for (const perf::RunResult* r : {&xeon, &atom}) {
    t.add_row({r->server, fmt_fixed(r->map.time, 1), fmt_fixed(r->reduce.time, 1),
               fmt_fixed(r->other.time, 1), fmt_fixed(r->total_time(), 1),
               fmt_fixed(r->whole().dynamic_power, 1), fmt_fixed(r->total_energy(), 0),
               fmt_sci(r->total_energy() * r->total_time())});
  }
  std::fputs(t.render().c_str(), stdout);

  // 3. Classification and the verdict.
  core::AppClass cls = core::classify_workload(ch, spec.workload);
  double edp_x = xeon.total_energy() * xeon.total_time();
  double edp_a = atom.total_energy() * atom.total_time();
  std::printf("\nclass: %s\n", core::to_string(cls).c_str());
  std::printf("performance: Xeon is %.2fx faster\n", atom.total_time() / xeon.total_time());
  std::printf("energy-efficiency (EDP): %s wins by %.2fx\n",
              edp_a < edp_x ? "Atom" : "Xeon",
              edp_a < edp_x ? edp_x / edp_a : edp_a / edp_x);
  return 0;
}
