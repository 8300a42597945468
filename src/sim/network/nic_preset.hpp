// Calibrated NIC endpoint presets: the line-rate generations the
// fabric can attach to a node, with per-server-class achievable
// efficiency. The paper's testbed is effective-1GbE (117 MB/s line
// calibrated from its measured shuffle rates, scaled by each server's
// network_efficiency), and PR 7 proved that regime can never make the
// spine bind: per-node NICs saturate first. The 10/40 GbE presets
// model endpoint upgrades, where the low-power-Hadoop literature
// (Zheng et al.; Qureshi & Koubaa's SBC clusters) reports the
// inversion this layer exists to express — wimpy cores cannot drive a
// fat NIC at line rate, so their achievable fraction falls with the
// line speed while the *absolute* rate still grows enough to push the
// bottleneck off the endpoints and into the switching layers.
#pragma once

namespace bvl::sim {

enum class NicPresetId {
  /// The paper's effective-1GbE testbed NIC. Identity preset: the
  /// endpoint rate is exactly `base_mbps * 1e6 * network_efficiency`,
  /// the pre-preset expression, so every golden stays byte-identical.
  k1GbE,
  /// 10x line rate; big cores sustain 95% of it, little cores 40%.
  k10GbE,
  /// 40x line rate; big cores sustain 85% of it, little cores 20%.
  k40GbE,
};

/// One calibrated preset. `big_eff`/`little_eff` anchor a linear
/// interpolation over the server's configured 1GbE network_efficiency
/// (1.0 = big/Xeon-class, 0.7 = little/Atom-class): classes in
/// between get a proportionally blended achievable fraction.
struct NicPreset {
  NicPresetId id = NicPresetId::k1GbE;
  const char* name = "1GbE";
  double line_multiple = 1.0;  ///< line rate as a multiple of the 1GbE base
  double big_eff = 1.0;        ///< achievable fraction at network_efficiency 1.0
  double little_eff = 0.7;     ///< achievable fraction at network_efficiency 0.7

  /// Endpoint rate in bytes/s for a server whose calibrated 1GbE
  /// effective line rate is `base_mbps` MB/s and whose 1GbE
  /// achievable fraction is `network_efficiency`. k1GbE reproduces
  /// the historical expression bit for bit.
  double endpoint_bytes_per_s(double base_mbps, double network_efficiency) const;

  /// Throws util::Error on non-positive line rate or efficiencies.
  void validate() const;
};

/// The calibrated preset table entry for `id`.
const NicPreset& nic_preset(NicPresetId id);

}  // namespace bvl::sim
