#include "power/power_model.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bvl::power {

PowerModel::PowerModel(const arch::ServerConfig& server)
    : params_(server.power),
      dvfs_(server.dvfs),
      issue_width_(server.core.issue_width) {}

double PowerModel::activity_factor(double ipc) const {
  // Clock gating keeps a floor of switching activity; beyond that,
  // activity tracks how full the pipeline is.
  double util = std::clamp(ipc / static_cast<double>(issue_width_), 0.0, 1.0);
  return 0.55 + 0.45 * util;
}

Watts PowerModel::node_draw(int active_cores, Hertz freq) const {
  require(active_cores >= 0, "PowerModel::node_draw: negative active cores");
  SystemLoad load;
  load.active_cores = active_cores;
  load.avg_ipc = static_cast<double>(issue_width_);  // envelope: full activity factor
  return params_.system_idle_w + dynamic_power(load, dvfs_.clamp(freq));
}

Watts PowerModel::dynamic_power(const SystemLoad& load, Hertz freq) const {
  require(load.active_cores >= 0, "PowerModel: negative active cores");
  require(load.disk_duty >= 0.0 && load.disk_duty <= 1.0, "PowerModel: disk duty out of [0,1]");
  Volts v = dvfs_.voltage_at(freq);
  double act = activity_factor(load.avg_ipc);

  Watts cores = static_cast<double>(load.active_cores) *
                (params_.core_ceff_f * v * v * freq * act + params_.core_leak_w_per_v * v);
  // Uncore voltage tracks core voltage; reference point is the top
  // DVFS voltage so uncore_w is the max-frequency figure.
  Volts v_ref = dvfs_.voltage_at(dvfs_.max_freq());
  Watts uncore = load.active_cores > 0 ? params_.uncore_w * (v * v) / (v_ref * v_ref) : 0.0;
  Watts dram = params_.dram_idle_w * (load.active_cores > 0 ? 1.0 : 0.0) +
               params_.dram_w_per_gbps * load.mem_gbps;
  Watts disk = params_.disk_active_w * load.disk_duty;
  return cores + uncore + dram + disk;
}

}  // namespace bvl::power
