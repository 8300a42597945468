#include "perf/task_cost.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bvl::perf {

namespace {

double instructions_for(const mr::WorkCounters& c, const PhaseCosts& k,
                        const arch::StorageModel& storage, double device_bytes) {
  double inst = 0;
  inst += k.per_record * c.input_records;
  inst += k.per_token * c.token_ops;
  inst += k.per_emit * c.emits;
  inst += k.per_compare * c.compares;
  inst += k.per_hash * c.hash_ops;
  inst += k.per_compute_unit * c.compute_units;
  inst += k.per_input_byte * c.input_bytes;
  inst += k.per_output_byte * (c.output_bytes + c.spill_bytes);
  inst += storage.kernel_instructions(static_cast<Bytes>(device_bytes));
  return inst;
}

constexpr double kCodecInstPerByte = 0.8;

}  // namespace

JobCost extract_job_cost(const mr::JobTrace& trace, const arch::ServerConfig& server,
                         const arch::StorageModel& storage, const hdfs::DfsConfig& dfs,
                         const ClusterConfig& cluster, int slots) {
  require(slots >= 1, "extract_job_cost: need at least one slot");
  const WorkloadCalibration& cal = calibration_for(trace.workload);
  JobCost jc;

  double cache_bytes = cluster.page_cache_fraction * static_cast<double>(server.memory.capacity);
  // Input reads are served from the page cache for the fraction of the
  // per-node dataset that fits (both servers carry 8 GB): at 1 GB/node
  // reads are nearly free on either machine, while at 10-20 GB/node the
  // cache overflows and the disk gap opens — the mechanism behind the
  // paper's data-size sensitivity (Sec. 3.3).
  double read_miss = std::clamp(
      1.0 - cache_bytes / std::max(1.0, static_cast<double>(trace.config.input_size)), 0.05, 1.0);

  // ---- Map phase ----
  {
    PhaseCost& pc = jc.map;
    pc.sig = &cal.map_sig;
    pc.mem_refs_per_inst = cal.map_sig.mem_refs_per_inst;
    pc.locality_theta = cal.map_sig.locality_theta;
    const int ntasks = static_cast<int>(trace.num_map_tasks());

    // Map-output compression (mapreduce.map.output.compress): spills,
    // the merged map output, and the shuffle shrink by the codec
    // ratio; the codec itself costs CPU per uncompressed byte. For a
    // map-only job disk_write_bytes is final HDFS output and stays
    // uncompressed.
    const bool compress = trace.config.compress_map_output;
    const bool map_only = trace.reduce_tasks.empty();
    const double cf = compress ? 1.0 / trace.config.compression_ratio : 1.0;

    double ws_acc = 0;
    pc.tasks.reserve(trace.map_tasks.size());
    for (const auto& t : trace.map_tasks) {
      const auto& c = t.counters;
      TaskCost tc;
      double spill_dev = c.spill_bytes * cf;
      double write_dev = map_only ? c.disk_write_bytes : c.disk_write_bytes * cf;
      // Spill re-reads hit the device only for the fraction the page
      // cache (shared by active tasks) cannot hold.
      double cache_share = cache_bytes / std::max(1, std::min(slots, ntasks));
      double spill_vol = std::max(1.0, spill_dev);
      double merge_miss = std::clamp(1.0 - cache_share / spill_vol, 0.0, 1.0);
      double device = c.disk_read_bytes * read_miss + write_dev + spill_dev +
                      c.merge_read_bytes * cf * merge_miss;
      tc.device_bytes = device;
      tc.seeks = c.disk_seeks;
      tc.inst = instructions_for(c, cal.map_costs, storage, device);
      if (compress) tc.inst += kCodecInstPerByte * (c.spill_bytes + c.merge_read_bytes);

      // Fault recovery: stragglers stretch their wave, failed/killed
      // attempts burn instructions and disk volume, retries wait out
      // their backoff.
      tc.time_factor = t.time_factor;
      tc.backoff_s = t.backoff_s;
      if (t.attempts > 1) {
        double wdev = (t.wasted.spill_bytes + t.wasted.merge_read_bytes) * cf +
                      (map_only ? t.wasted.disk_write_bytes : t.wasted.disk_write_bytes * cf) +
                      t.wasted.disk_read_bytes * read_miss;
        tc.device_bytes += wdev;
        tc.wasted_inst = instructions_for(t.wasted, cal.map_costs, storage, wdev);
      }
      // Resident map state = one post-combine spill run (the live
      // buffer region), not the raw emit stream: WordCount's combine
      // table is tiny while Sort's buffer is the full spill size.
      double run_size = c.spills > 0 ? c.spill_bytes / c.spills : c.emit_bytes;
      double resident = std::min(static_cast<double>(trace.config.spill_buffer), run_size);
      double ws = 512.0 * 1024 + cal.map_sig.working_set_per_input_byte * resident;
      tc.ws_contrib = std::min(ws, cal.map_sig.ws_cap_bytes);
      ws_acc += tc.ws_contrib;
      pc.tasks.push_back(tc);
    }
    if (!trace.map_tasks.empty()) ws_acc /= static_cast<double>(trace.map_tasks.size());
    pc.ws_bytes = std::max(512.0 * 1024, ws_acc);
  }

  // ---- Reduce phase (includes shuffle) ----
  if (!trace.reduce_tasks.empty()) {
    PhaseCost& pc = jc.reduce;
    pc.sig = &cal.reduce_sig;
    pc.mem_refs_per_inst = cal.reduce_sig.mem_refs_per_inst;
    pc.locality_theta = cal.reduce_sig.locality_theta;
    const int ntasks = static_cast<int>(trace.num_reduce_tasks());

    const bool compress = trace.config.compress_map_output;
    const double cf = compress ? 1.0 / trace.config.compression_ratio : 1.0;

    double ws_acc = 0;
    pc.tasks.reserve(trace.reduce_tasks.size());
    for (const auto& t : trace.reduce_tasks) {
      const auto& c = t.counters;
      TaskCost tc;
      double cache_share = cache_bytes / std::max(1, std::min(slots, ntasks));
      double merge_vol = std::max(1.0, c.merge_read_bytes * cf);
      double merge_miss = std::clamp(1.0 - cache_share / merge_vol, 0.0, 1.0);
      double device =
          c.disk_read_bytes * read_miss + c.disk_write_bytes + c.merge_read_bytes * cf * merge_miss;
      tc.device_bytes = device;
      tc.seeks = c.disk_seeks;
      tc.net_bytes = c.shuffle_bytes * cf * (static_cast<double>(cluster.nodes - 1) /
                                             static_cast<double>(cluster.nodes));
      tc.inst = instructions_for(c, cal.reduce_costs, storage, device);
      if (compress) tc.inst += kCodecInstPerByte * c.shuffle_bytes;

      tc.time_factor = t.time_factor;
      tc.backoff_s = t.backoff_s;
      if (t.attempts > 1) {
        // A restarted reducer re-pulls its map outputs: wasted shuffle
        // volume crosses the NIC again.
        double wdev = t.wasted.merge_read_bytes * cf + t.wasted.disk_write_bytes +
                      t.wasted.disk_read_bytes * read_miss;
        tc.device_bytes += wdev;
        tc.net_bytes += t.wasted.shuffle_bytes * cf *
                        (static_cast<double>(cluster.nodes - 1) /
                         static_cast<double>(cluster.nodes));
        tc.wasted_inst = instructions_for(t.wasted, cal.reduce_costs, storage, wdev);
      }
      double resident = 0.5 * c.shuffle_bytes + 0.3 * c.output_bytes;
      double ws = 512.0 * 1024 + cal.reduce_sig.working_set_per_input_byte * resident;
      tc.ws_contrib = std::min(ws, cal.reduce_sig.ws_cap_bytes);
      ws_acc += tc.ws_contrib;
      pc.tasks.push_back(tc);
    }
    ws_acc /= static_cast<double>(trace.reduce_tasks.size());
    pc.ws_bytes = std::max(512.0 * 1024, ws_acc);
  }

  // ---- Setup / cleanup ("Others") ----
  {
    PhaseCost& pc = jc.other;
    pc.sig = &framework_signature();
    double device = trace.setup.disk_read_bytes + trace.setup.disk_write_bytes;
    pc.fixed_device_bytes = device;
    pc.fixed_seeks = trace.setup.disk_seeks + trace.cleanup.disk_seeks;
    pc.fixed_inst = instructions_for(trace.setup, cal.map_costs, storage, device) +
                    instructions_for(trace.cleanup, cal.map_costs, storage, 0.0);
    pc.fixed_s = dfs.job_setup_s + dfs.job_cleanup_s;
    pc.mem_refs_per_inst = framework_signature().mem_refs_per_inst;
    pc.locality_theta = framework_signature().locality_theta;
  }

  return jc;
}

}  // namespace bvl::perf
