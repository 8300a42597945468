// Complete server node descriptions and the two presets from the
// paper's Table 1: Intel Xeon E5-2420 ("big") and Intel Atom C2758
// ("little"). Power coefficients are plain data here; the power module
// turns them into watts.
#pragma once

#include <string>

#include "arch/core_model.hpp"
#include "arch/dvfs.hpp"
#include "arch/storage.hpp"
#include "util/units.hpp"

namespace bvl::arch {

/// Coefficients for the whole-system power model. Calibrated so the
/// modeled dynamic system power matches the class of machine (Atom
/// microserver ~15-20 W dynamic, Xeon server ~100-130 W dynamic), the
/// ratio that drives every EDP conclusion in the paper.
struct PowerParams {
  /// Effective switched capacitance per core: P_dyn = ceff * V^2 * f
  /// (ceff in farads; ~1e-9 F gives watts at GHz frequencies).
  double core_ceff_f = 1e-9;
  /// Leakage watts per core per volt.
  double core_leak_w_per_v = 0.5;
  /// Uncore (interconnect, LLC, memory controller) watts at nominal
  /// voltage, scaled by V^2.
  double uncore_w = 5.0;
  double dram_idle_w = 2.0;
  double dram_w_per_gbps = 0.8;
  double disk_active_w = 6.0;
  /// Whole-system idle power; the Watts-up methodology subtracts it.
  double system_idle_w = 30.0;

  bool operator==(const PowerParams&) const = default;
};

struct ServerConfig {
  std::string name;
  CoreConfig core;
  std::vector<CacheLevelConfig> cache_levels;
  MemoryConfig memory;
  DvfsTable dvfs;
  StorageConfig storage;
  PowerParams power;
  int cores = 8;          ///< schedulable cores per node
  double area_mm2 = 0.0;  ///< die area (capital-cost proxy, Sec. 1.2)
  /// Task-launch (JVM fork, class loading) slowdown relative to the
  /// big-core reference; launch is CPU work, so the little core pays
  /// more and both pay less at higher frequency.
  double task_launch_factor = 1.0;
  /// Fraction of the cluster's nominal NIC payload rate this node
  /// sustains (TCP processing runs on the cores; the microserver's
  /// weaker NIC offload and kernel path cap its shuffle rate).
  double network_efficiency = 1.0;

  /// Every field, name included: a modified copy that keeps a preset's
  /// name is a different server (pricer caches and rack type tables
  /// compare with this, never by name alone).
  bool operator==(const ServerConfig&) const = default;

  CacheHierarchy make_hierarchy() const { return CacheHierarchy(cache_levels, memory); }
  CoreModel make_core_model() const { return CoreModel(core, make_hierarchy()); }
};

/// Intel Xeon E5-2420: Sandy Bridge, 4-wide OoO, 32K/256K/15M
/// three-level hierarchy, 216 mm^2 (Table 1 / Sec. 1.2).
ServerConfig xeon_e5_2420();

/// Intel Atom C2758: Silvermont, 2-wide, 24K L1d + 4x1M module-shared
/// L2, no L3, 160 mm^2.
ServerConfig atom_c2758();

/// Convenience: both presets, big first.
std::vector<ServerConfig> paper_servers();

}  // namespace bvl::arch
