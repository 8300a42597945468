#include "mapreduce/job.hpp"

#include <bit>

namespace bvl::mr {

std::string trace_key(const JobConfig& cfg) {
  // Binding every member by name: a new JobConfig field stops this from
  // compiling until it is keyed below or excluded on purpose.
  const auto& [input_size, block_size, num_reducers, spill_buffer, use_combiner,
               compress_map_output, compression_ratio, sim_scale, exec_threads, fault, seed] = cfg;
  (void)exec_threads;  // executor width: traces are bit-identical at any value

  std::string key;
  auto put = [&key](const char* name, auto v) {
    key += name;
    key += std::to_string(v);
  };
  put("in=", input_size);
  put(" blk=", block_size);
  put(" red=", num_reducers);
  put(" spill=", spill_buffer);
  put(" comb=", static_cast<int>(use_combiner));
  put(" compress=", static_cast<int>(compress_map_output));
  put(" ratio=", std::bit_cast<std::uint64_t>(compression_ratio));
  put(" scale=", std::bit_cast<std::uint64_t>(sim_scale));
  put(" fault=", fault.active() ? fault.cache_key() : std::uint64_t{0});
  put(" seed=", seed);
  return key;
}

}  // namespace bvl::mr
