#include "arch/dvfs.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bvl::arch {

DvfsTable::DvfsTable(std::vector<OperatingPoint> points) : points_(std::move(points)) {
  require(!points_.empty(), "DvfsTable: empty table");
  for (std::size_t i = 0; i < points_.size(); ++i) {
    require(points_[i].freq > 0 && points_[i].voltage > 0, "DvfsTable: non-positive point");
    if (i > 0) require(points_[i].freq > points_[i - 1].freq, "DvfsTable: points must ascend");
  }
}

Volts DvfsTable::voltage_at(Hertz freq) const {
  require(freq > 0 && std::isfinite(freq), "DvfsTable::voltage_at: non-positive frequency");
  if (freq <= points_.front().freq) return points_.front().voltage;
  if (freq >= points_.back().freq) return points_.back().voltage;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (freq <= points_[i].freq) {
      const auto& lo = points_[i - 1];
      const auto& hi = points_[i];
      double t = (freq - lo.freq) / (hi.freq - lo.freq);
      return lo.voltage + t * (hi.voltage - lo.voltage);
    }
  }
  return points_.back().voltage;  // unreachable
}

Hertz DvfsTable::clamp(Hertz freq) const {
  require(freq > 0 && std::isfinite(freq), "DvfsTable::clamp: non-positive frequency");
  return std::clamp(freq, min_freq(), max_freq());
}

Hertz DvfsTable::level_freq(int i) const {
  require(i >= 0 && i < levels(), "DvfsTable::level_freq: level out of range");
  return points_[static_cast<std::size_t>(i)].freq;
}

int DvfsTable::level_of(Hertz freq) const {
  Hertz f = clamp(freq);
  int best = 0;
  double best_dist = std::abs(points_[0].freq - f);
  for (int i = 1; i < levels(); ++i) {
    double dist = std::abs(points_[static_cast<std::size_t>(i)].freq - f);
    if (dist <= best_dist) {  // <=: ties round up to the faster point
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

std::vector<Hertz> paper_frequency_sweep() {
  return {1.2 * GHz, 1.4 * GHz, 1.6 * GHz, 1.8 * GHz};
}

}  // namespace bvl::arch
