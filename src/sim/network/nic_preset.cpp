#include "sim/network/nic_preset.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bvl::sim {

namespace {

// The interpolation anchors: where the configured per-server 1GbE
// network_efficiency values sit for the paper's two classes.
constexpr double kBigAnchor = 1.0;
constexpr double kLittleAnchor = 0.7;

constexpr NicPreset kPresets[] = {
    {NicPresetId::k1GbE, "1GbE", 1.0, 1.0, 0.7},
    {NicPresetId::k10GbE, "10GbE", 10.0, 0.95, 0.40},
    {NicPresetId::k40GbE, "40GbE", 40.0, 0.85, 0.20},
};

}  // namespace

double NicPreset::endpoint_bytes_per_s(double base_mbps, double network_efficiency) const {
  require(base_mbps > 0, "NicPreset: base line rate must be positive");
  require(network_efficiency > 0, "NicPreset: network efficiency must be positive");
  if (id == NicPresetId::k1GbE) {
    // Identity preset: the exact historical expression, so default
    // fabric runs stay byte-identical to the pre-preset goldens.
    return base_mbps * 1e6 * network_efficiency;
  }
  // Blend the achievable fraction by where this server's 1GbE
  // efficiency sits between the little and big anchors, clamped so
  // exotic configs outside [0.7, 1.0] don't extrapolate.
  double t = std::clamp((network_efficiency - kLittleAnchor) / (kBigAnchor - kLittleAnchor),
                        0.0, 1.0);
  double eff = little_eff + (big_eff - little_eff) * t;
  return base_mbps * line_multiple * 1e6 * eff;
}

void NicPreset::validate() const {
  require(line_multiple > 0, "NicPreset: line rate multiple must be positive");
  require(big_eff > 0 && big_eff <= 1.0, "NicPreset: big_eff must be in (0, 1]");
  require(little_eff > 0 && little_eff <= big_eff,
          "NicPreset: little_eff must be in (0, big_eff]");
}

const NicPreset& nic_preset(NicPresetId id) {
  for (const NicPreset& p : kPresets) {
    if (p.id == id) return p;
  }
  throw Error("nic_preset: unknown preset id");
}

}  // namespace bvl::sim
