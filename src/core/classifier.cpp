#include "core/classifier.hpp"

#include "core/characterizer.hpp"
#include "util/error.hpp"

namespace bvl::core {

std::string to_string(AppClass c) {
  switch (c) {
    case AppClass::kComputeBound: return "compute-bound";
    case AppClass::kIoBound: return "io-bound";
    case AppClass::kHybrid: return "hybrid";
  }
  throw Error("to_string(AppClass): unknown class");
}

AppClass classify(const perf::RunResult& run) {
  double cpu = run.map.cpu_time + run.reduce.cpu_time;
  double io = run.map.io_time + run.reduce.io_time;
  double net = run.map.net_time + run.reduce.net_time;
  double total = cpu + io + net;
  require(total > 0, "classify: run has no component breakdown");
  double io_share = (io + net) / total;
  if (io_share > 0.40) return AppClass::kIoBound;
  if (io_share < 0.19) return AppClass::kComputeBound;
  return AppClass::kHybrid;
}

AppClass classify_workload(Characterizer& ch, wl::WorkloadId id) {
  return classify(ch.run(classifier_spec(id), arch::xeon_e5_2420()));
}

RunSpec classifier_spec(wl::WorkloadId id) {
  RunSpec ref;
  ref.workload = id;
  ref.input_size = 1 * GB;
  ref.block_size = 512 * MB;
  ref.freq = 1.8 * GHz;
  return ref;
}

}  // namespace bvl::core
