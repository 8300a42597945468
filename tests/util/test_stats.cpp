#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bvl {
namespace {

TEST(Accumulator, MeanCountAndSum) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyThrows) {
  Accumulator acc;
  EXPECT_THROW(acc.mean(), Error);
}

}  // namespace
}  // namespace bvl
