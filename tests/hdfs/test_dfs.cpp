#include "hdfs/dfs.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bvl::hdfs {
namespace {

TEST(PlanBlocks, ExactMultiple) {
  auto blocks = plan_blocks(1 * GB, 256 * MB);
  ASSERT_EQ(blocks.size(), 4u);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].id, i);
    EXPECT_EQ(blocks[i].length, 256 * MB);
    EXPECT_EQ(blocks[i].offset, i * 256 * MB);
  }
}

TEST(PlanBlocks, ShortTailBlock) {
  auto blocks = plan_blocks(1 * GB + 1, 512 * MB);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks.back().length, 1u);
}

TEST(PlanBlocks, CoversWholeFileWithoutOverlap) {
  auto blocks = plan_blocks(777 * MB, 128 * MB);
  Bytes covered = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.offset, covered);
    covered += b.length;
  }
  EXPECT_EQ(covered, 777 * MB);
}

TEST(PlanBlocks, RejectsZeroSizes) {
  EXPECT_THROW(plan_blocks(0, 1 * MB), Error);
  EXPECT_THROW(plan_blocks(1 * MB, 0), Error);
}

TEST(NumMapTasks, MatchesPaperFormula) {
  // "number of map tasks = Input data size / HDFS block size"
  // (Sec. 3.1.1): 1 GB at 32 MB -> 32 tasks, at 512 MB -> 2.
  EXPECT_EQ(num_map_tasks(1 * GB, 32 * MB), 32u);
  EXPECT_EQ(num_map_tasks(1 * GB, 512 * MB), 2u);
  EXPECT_EQ(num_map_tasks(10 * GB, 512 * MB), 20u);
  EXPECT_EQ(num_map_tasks(1, 512 * MB), 1u);  // round up
}

}  // namespace
}  // namespace bvl::hdfs
