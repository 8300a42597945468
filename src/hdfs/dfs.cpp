#include "hdfs/dfs.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bvl::hdfs {

std::vector<BlockInfo> plan_blocks(Bytes file_size, Bytes block_size) {
  require(file_size > 0, "plan_blocks: empty file");
  require(block_size > 0, "plan_blocks: zero block size");
  std::vector<BlockInfo> out;
  Bytes off = 0;
  std::uint64_t id = 0;
  while (off < file_size) {
    Bytes len = std::min(block_size, file_size - off);
    out.push_back({id++, off, len});
    off += len;
  }
  return out;
}

std::uint64_t num_map_tasks(Bytes file_size, Bytes block_size) {
  require(block_size > 0, "num_map_tasks: zero block size");
  return (file_size + block_size - 1) / block_size;
}

}  // namespace bvl::hdfs
