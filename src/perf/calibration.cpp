#include "perf/calibration.hpp"

#include <map>

#include "util/error.hpp"

namespace bvl::perf {

namespace {

arch::Signature make_sig(std::string name, double ilp, double mem_refs, double theta,
                         double ws_per_byte, double prefetch, double ws_cap_mb = 4096.0) {
  arch::Signature s;
  s.name = std::move(name);
  s.ilp = ilp;
  s.mem_refs_per_inst = mem_refs;
  s.branches_per_inst = 0.16;
  s.branch_miss_rate = 0.025;
  s.locality_theta = theta;
  s.working_set_per_input_byte = ws_per_byte;
  s.prefetchability = prefetch;
  s.ws_cap_bytes = ws_cap_mb * 1024 * 1024;
  arch::validate(s);
  return s;
}

std::map<std::string, WorkloadCalibration> build_table() {
  std::map<std::string, WorkloadCalibration> t;

  // WordCount: CPU-intensive. Map hashes words into a combiner table
  // (medium locality, decent ILP); reduce sums small value lists.
  {
    WorkloadCalibration c;
    c.map_sig = make_sig("WC.map", 2.3, 0.36, 0.95, 0.50, 0.40);
    c.reduce_sig = make_sig("WC.reduce", 2.0, 0.38, 0.90, 0.80, 0.35);
    c.map_costs.per_token = 140;
    t["WordCount"] = c;
  }

  // Sort: I/O-intensive pass-through; compute is streaming copies and
  // comparator calls over buffers far larger than any cache.
  {
    WorkloadCalibration c;
    c.map_sig = make_sig("ST.map", 2.9, 0.42, 0.70, 1.20, 0.70);
    c.reduce_sig = make_sig("ST.reduce", 2.9, 0.42, 0.70, 1.20, 0.70);
    c.map_costs.per_record = 180;   // no tokenization beyond the key split
    c.map_costs.per_emit = 120;
    c.map_costs.per_compare = 25;
    c.map_costs.per_input_byte = 0.8;
    c.map_costs.per_output_byte = 0.8;
    t["Sort"] = c;
  }

  // Grep: hybrid search (streamy, predictable) + frequency sort.
  {
    WorkloadCalibration c;
    c.map_sig = make_sig("GP.map", 2.6, 0.34, 0.95, 0.35, 0.60);
    // Reduce aggregates the full match-frequency table: pointer-heavy,
    // low locality — the phase the paper observes preferring Xeon.
    c.reduce_sig = make_sig("GP.reduce", 1.3, 0.55, 0.45, 2.50, 0.03, 2.0);
    c.map_costs.per_record = 250;
    c.map_costs.per_token = 10;
    c.map_costs.per_emit = 80;
    c.map_costs.per_compare = 25;  // short-token comparator
    c.reduce_costs.per_compute_unit = 360;
    c.reduce_costs.per_hash = 420;
    t["Grep"] = c;
  }

  // TeraSort: hybrid; moderate I/O and cache misses (Sec. 3.1.1).
  {
    WorkloadCalibration c;
    c.map_sig = make_sig("TS.map", 2.7, 0.40, 0.78, 0.90, 0.60);
    c.reduce_sig = make_sig("TS.reduce", 2.5, 0.42, 0.68, 1.10, 0.50);
    c.map_costs.per_record = 2500;
    c.map_costs.per_emit = 400;
    c.map_costs.per_compare = 45;
    c.map_costs.per_input_byte = 1.0;
    c.reduce_costs.per_compare = 45;
    c.reduce_costs.per_compute_unit = 60;
    t["TeraSort"] = c;
  }

  // Naive Bayes: compute-intensive map (feature extraction + model
  // counts); reduce merges large count tables — memory-intensive,
  // "requires significant communication with memory subsystem".
  {
    WorkloadCalibration c;
    c.map_sig = make_sig("NB.map", 2.2, 0.35, 1.00, 0.45, 0.40);
    c.reduce_sig = make_sig("NB.reduce", 1.3, 0.52, 0.50, 20.0, 0.03, 2.5);
    c.map_costs.per_compute_unit = 170;
    c.map_costs.per_token = 130;
    c.reduce_costs.per_compute_unit = 200;
    c.reduce_costs.per_hash = 450;
    t["NaiveBayes"] = c;
  }

  // FP-Growth: heaviest compute; FP-tree building/mining is
  // pointer-chasing with a working set that grows with the shard.
  {
    WorkloadCalibration c;
    c.map_sig = make_sig("FP.map", 2.0, 0.37, 0.90, 0.60, 0.35);
    c.reduce_sig = make_sig("FP.reduce", 1.5, 0.43, 0.75, 1.00, 0.15, 24.0);
    c.map_costs.per_compute_unit = 140;
    c.reduce_costs.per_compute_unit = 360;
    c.reduce_costs.per_hash = 300;
    t["FPGrowth"] = c;
  }
  return t;
}

}  // namespace

const WorkloadCalibration& calibration_for(const std::string& workload) {
  static const std::map<std::string, WorkloadCalibration> table = build_table();
  auto it = table.find(workload);
  // Called on every pricing: the message is built only on a miss.
  if (it == table.end()) throw Error("calibration_for: unknown workload '" + workload + "'");
  return it->second;
}

const arch::Signature& framework_signature() {
  static const arch::Signature sig =
      make_sig("framework", 1.9, 0.38, 0.85, 0.50, 0.30);
  return sig;
}

}  // namespace bvl::perf
