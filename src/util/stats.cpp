#include "util/stats.hpp"

#include "util/error.hpp"

namespace bvl {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double Accumulator::mean() const {
  require(n_ > 0, "Accumulator::mean on empty accumulator");
  return mean_;
}

}  // namespace bvl
