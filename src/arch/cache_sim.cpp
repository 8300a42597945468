#include "arch/cache_sim.hpp"

#include "util/error.hpp"

namespace bvl::arch {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

int log2_exact(std::uint64_t v) {
  int s = 0;
  while ((v >> s) != 1) ++s;
  return s;
}
}  // namespace

CacheSim::CacheSim(const CacheLevelConfig& cfg)
    : line_bytes_(cfg.line_bytes), assoc_(cfg.associativity) {
  require(cfg.capacity > 0, "CacheSim: zero capacity");
  require(assoc_ > 0, "CacheSim: zero associativity");
  require(is_pow2(static_cast<std::uint64_t>(line_bytes_)), "CacheSim: line size must be pow2");
  line_shift_ = log2_exact(static_cast<std::uint64_t>(line_bytes_));
  std::uint64_t lines = cfg.capacity / static_cast<Bytes>(line_bytes_);
  require(lines >= static_cast<std::uint64_t>(assoc_), "CacheSim: capacity < one set");
  num_sets_ = static_cast<int>(lines / static_cast<std::uint64_t>(assoc_));
  require(num_sets_ > 0, "CacheSim: no sets");
  std::size_t ways = static_cast<std::size_t>(num_sets_) * static_cast<std::size_t>(assoc_);
  tags_.assign(ways, 0);
  last_use_.assign(ways, 0);
  valid_.assign(ways, 0);
}

bool CacheSim::access(std::uint64_t address) {
  ++accesses_;
  ++clock_;
  std::uint64_t line = address >> line_shift_;
  auto set = static_cast<std::size_t>(line % static_cast<std::uint64_t>(num_sets_));
  std::uint64_t tag = line / static_cast<std::uint64_t>(num_sets_);
  std::size_t base = set * static_cast<std::size_t>(assoc_);

  std::size_t victim = base;
  for (int w = 0; w < assoc_; ++w) {
    std::size_t i = base + static_cast<std::size_t>(w);
    if (valid_[i] && tags_[i] == tag) {
      last_use_[i] = clock_;
      return true;
    }
    if (!valid_[i]) {
      victim = i;  // prefer an invalid way (last one wins, like the batch path)
    } else if (valid_[victim] && last_use_[i] < last_use_[victim]) {
      victim = i;
    }
  }
  ++misses_;
  valid_[victim] = 1;
  tags_[victim] = tag;
  last_use_[victim] = clock_;
  return false;
}

std::size_t CacheSim::access_batch(const std::uint64_t* addrs, std::size_t n,
                                   std::uint64_t* missed_out) {
  // Hoisted per-level constants: the shift and set count never change
  // inside a block, and the running clock stays in a register.
  const int shift = line_shift_;
  const auto nsets = static_cast<std::uint64_t>(num_sets_);
  const int assoc = assoc_;
  std::uint64_t clock = clock_;
  std::size_t misses = 0;

  for (std::size_t i = 0; i < n; ++i) {
    ++clock;
    const std::uint64_t line = addrs[i] >> shift;
    const auto base = static_cast<std::size_t>(line % nsets) * static_cast<std::size_t>(assoc);
    const std::uint64_t tag = line / nsets;

    // Branch-light hit scan: at most one way can match (a tag is
    // inserted only when absent), so scanning every way and keeping
    // the last match is equivalent to the reference's early exit.
    int hit_way = -1;
    for (int w = 0; w < assoc; ++w) {
      const std::size_t j = base + static_cast<std::size_t>(w);
      const bool h = valid_[j] != 0 && tags_[j] == tag;
      hit_way = h ? w : hit_way;
    }
    if (hit_way >= 0) {
      last_use_[base + static_cast<std::size_t>(hit_way)] = clock;
      continue;
    }

    // Miss: same victim policy as the reference scan — last invalid
    // way if any, else the least-recently-used valid way (strict <,
    // so the first minimum wins).
    std::size_t victim = base;
    for (int w = 0; w < assoc; ++w) {
      const std::size_t j = base + static_cast<std::size_t>(w);
      if (!valid_[j]) {
        victim = j;
      } else if (valid_[victim] && last_use_[j] < last_use_[victim]) {
        victim = j;
      }
    }
    valid_[victim] = 1;
    tags_[victim] = tag;
    last_use_[victim] = clock;
    if (missed_out != nullptr) missed_out[misses] = addrs[i];
    ++misses;
  }

  clock_ = clock;
  accesses_ += n;
  misses_ += misses;
  return misses;
}

HierarchySim::HierarchySim(const std::vector<CacheLevelConfig>& levels) {
  require(!levels.empty(), "HierarchySim: empty hierarchy");
  sims_.reserve(levels.size());
  for (const auto& l : levels) sims_.emplace_back(l);
}

std::size_t HierarchySim::access(std::uint64_t address) {
  ++total_accesses_;
  for (std::size_t i = 0; i < sims_.size(); ++i) {
    if (sims_[i].access(address)) return i;
  }
  return sims_.size();
}

std::size_t HierarchySim::access_batch(const std::uint64_t* addrs, std::size_t n) {
  total_accesses_ += n;
  if (n == 0) return 0;
  // Level-by-level block filtering. Each level consumes the previous
  // level's misses in access order — the exact subsequence it would
  // see under per-address walking — so state and counters match the
  // scalar path bit for bit.
  scratch_a_.resize(n);
  scratch_b_.resize(n);
  const std::uint64_t* in = addrs;
  std::size_t remaining = n;
  std::uint64_t* out = scratch_a_.data();
  for (auto& sim : sims_) {
    remaining = sim.access_batch(in, remaining, out);
    if (remaining == 0) return 0;
    in = out;
    out = (out == scratch_a_.data()) ? scratch_b_.data() : scratch_a_.data();
  }
  return remaining;
}

double HierarchySim::global_miss_ratio(std::size_t i) const {
  require(i < sims_.size(), "HierarchySim: level out of range");
  if (total_accesses_ == 0) return 0.0;
  return static_cast<double>(sims_[i].misses()) / static_cast<double>(total_accesses_);
}

}  // namespace bvl::arch
