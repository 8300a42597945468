// Streaming mean for the characterization sweeps.
#pragma once

#include <cstddef>

namespace bvl {

/// Welford streaming accumulator: running mean without storing samples.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace bvl
