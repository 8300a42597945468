// Voltage/frequency operating points.
//
// The paper sweeps core frequency over {1.2, 1.4, 1.6, 1.8} GHz on both
// servers. Dynamic power scales as C * V^2 * f, so the voltage at each
// point matters; each server preset carries a V/f table and we
// interpolate linearly between points.
#pragma once

#include <vector>

#include "util/units.hpp"

namespace bvl::arch {

struct OperatingPoint {
  Hertz freq = 0;
  Volts voltage = 0;

  bool operator==(const OperatingPoint&) const = default;
};

class DvfsTable {
 public:
  /// Points must be sorted by ascending frequency, all positive.
  explicit DvfsTable(std::vector<OperatingPoint> points);

  /// Linear interpolation; clamps outside the table range. Rejects
  /// non-positive / non-finite frequencies (a zero or NaN operating
  /// point is a caller bug, not a table lookup).
  Volts voltage_at(Hertz freq) const;

  Hertz min_freq() const { return points_.front().freq; }
  Hertz max_freq() const { return points_.back().freq; }
  const std::vector<OperatingPoint>& points() const { return points_; }

  /// Clamps `freq` into the table's [min_freq, max_freq] range.
  Hertz clamp(Hertz freq) const;

  // ---- Discrete level stepping (governors / power capping) ----
  // A "level" is an index into the operating-point table; governors
  // and the RAPL-style cap loop move nodes along these indexes rather
  // than along a continuous frequency axis.

  /// Number of discrete operating points.
  int levels() const { return static_cast<int>(points_.size()); }

  /// Frequency of level `i` (0 = slowest). `i` must be in range.
  Hertz level_freq(int i) const;

  /// Index of the table point nearest to `freq` (ties round up).
  int level_of(Hertz freq) const;

  bool operator==(const DvfsTable&) const = default;

 private:
  std::vector<OperatingPoint> points_;
};

/// The sweep used throughout the paper's Section 3.
std::vector<Hertz> paper_frequency_sweep();

}  // namespace bvl::arch
