// Whole-system power model.
//
// The paper measures wall power with a Watts up PRO and reports
// *dynamic* power: average draw during the job minus system idle
// (Sec. 1.1). We model the same decomposition:
//
//   P_system = P_idle + P_cores(V, f, activity) + P_uncore(V)
//            + P_dram(traffic) + P_disk(duty)
//
// and expose the dynamic part (everything except P_idle), which is
// what all EDP numbers consume.
#pragma once

#include "arch/server_config.hpp"
#include "util/units.hpp"

namespace bvl::power {

/// Instantaneous utilization snapshot the model converts to watts.
struct SystemLoad {
  int active_cores = 0;     ///< cores executing a task
  double avg_ipc = 1.0;     ///< mean IPC of the active cores
  double mem_gbps = 0.0;    ///< DRAM traffic
  double disk_duty = 0.0;   ///< fraction of time the disk is busy [0,1]
};

class PowerModel {
 public:
  explicit PowerModel(const arch::ServerConfig& server);

  /// Dynamic (above-idle) system power at the given operating point.
  Watts dynamic_power(const SystemLoad& load, Hertz freq) const;

  /// Modeled whole-node draw with `active_cores` busy at `freq` — the
  /// quantity the rack power-cap loop meters and throttles on: idle
  /// floor + fully-active cores + uncore + DRAM background. Excludes
  /// the traffic-dependent DRAM/disk terms, which the cap loop cannot
  /// know ahead of a task's execution; the cap is therefore on the
  /// CPU-side envelope a RAPL domain actually controls. Frequencies
  /// outside the DVFS table range are clamped to the nearest operating
  /// point: the model has no data beyond the table, and extrapolating
  /// C*V^2*f linearly past it would overstate draw.
  Watts node_draw(int active_cores, Hertz freq) const;

 private:
  /// Activity factor: a core running low-IPC code clocks fewer units.
  double activity_factor(double ipc) const;

  arch::PowerParams params_;
  arch::DvfsTable dvfs_;
  int issue_width_;
};

}  // namespace bvl::power
