#include "sim/network/fabric.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/error.hpp"

namespace bvl::sim {

Fabric::Fabric(Simulation& sim, Topology topo, std::vector<double> nic_bytes_per_s)
    : sim_(sim), topo_(std::move(topo)), nic_rate_(std::move(nic_bytes_per_s)) {
  topo_.validate();
  require(static_cast<int>(nic_rate_.size()) == topo_.nodes(),
          "Fabric: nic rate count != topology node count");
  for (double r : nic_rate_) require(r > 0, "Fabric: NIC rate must be positive");
  stats_.modeled = true;

  const int nracks = topo_.racks();
  tor_rate_.assign(static_cast<std::size_t>(nracks), 0.0);
  double total_rate = 0;
  for (int n = 0; n < topo_.nodes(); ++n) {
    double r = nic_rate_[static_cast<std::size_t>(n)];
    tor_rate_[static_cast<std::size_t>(topo_.rack_of[static_cast<std::size_t>(n)])] += r;
    total_rate += r;
    egress_.push_back(std::make_unique<ServiceQueue>(sim_));
    ingress_.push_back(std::make_unique<ServiceQueue>(sim_));
  }
  for (int r = 0; r < nracks; ++r) {
    if (topo_.tor_oversub > 0) {
      tor_rate_[static_cast<std::size_t>(r)] /= topo_.tor_oversub;
    } else {
      tor_rate_[static_cast<std::size_t>(r)] = 0;  // non-blocking
    }
    tor_.push_back(std::make_unique<ServiceQueue>(sim_));
  }
  if (nracks > 1 && topo_.spine_oversub > 0) {
    spine_rate_ = total_rate / topo_.spine_oversub;
    // ECMP: the spine's capacity is split evenly across k parallel
    // links; each rack-crossing flow is pinned to one by the flow
    // hash. k = 1 (division by 1.0 is exact) is the historical
    // single-path spine, bit for bit.
    const int k = topo_.spine_multipath;
    spine_link_rate_ = spine_rate_ / static_cast<double>(k);
    for (int link = 0; link < k; ++link) spine_.push_back(std::make_unique<ServiceQueue>(sim_));
    spine_link_bytes_.assign(static_cast<std::size_t>(k), 0.0);
  }
}

Seconds Fabric::earliest_spine_free_at() const {
  if (spine_.empty()) return sim_.now();
  Seconds earliest = spine_.front()->free_at();
  for (std::size_t link = 1; link < spine_.size(); ++link) {
    earliest = std::min(earliest, spine_[link]->free_at());
  }
  return earliest;
}

int Fabric::spine_link_of(int src, int dst, std::uint64_t seq, int links) {
  // SplitMix64 finalizer over a (src, dst, seq) packing: consecutive
  // flows of one (src, dst) pair spray across links deterministically,
  // so a rerun (or a different exec_threads) routes every flow the
  // same way — the replay timeline is single-threaded.
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 42) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 21) ^ seq;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<int>(x % static_cast<std::uint64_t>(links));
}

namespace {

/// One hop of a flow's path: the queue it waits on and its service
/// demand there (rate 0 marks a non-blocking layer — skipped).
struct Hop {
  ServiceQueue* link = nullptr;
  double rate = 0;
};

}  // namespace

void Fabric::send(int src, int dst, double bytes, Callback on_delivered) {
  require(src >= 0 && src < topo_.nodes(), "Fabric: bad source node");
  require(dst >= 0 && dst < topo_.nodes(), "Fabric: bad destination node");
  require(bytes >= 0, "Fabric: negative flow size");
  require(static_cast<bool>(on_delivered), "Fabric: null delivery callback");

  const int src_rack = topo_.rack_of[static_cast<std::size_t>(src)];
  const int dst_rack = topo_.rack_of[static_cast<std::size_t>(dst)];

  // Path assembly. The destination ingress NIC is ALWAYS on the path —
  // including src == dst — so modeled ingress demand sums exactly to
  // the analytic NIC term (see the routing contract in the header).
  Hop hops[5];
  int nhops = 0;
  if (src != dst) {
    hops[nhops++] = {egress_[static_cast<std::size_t>(src)].get(),
                     nic_rate_[static_cast<std::size_t>(src)]};
    hops[nhops++] = {tor_[static_cast<std::size_t>(src_rack)].get(),
                     tor_rate_[static_cast<std::size_t>(src_rack)]};
    if (src_rack != dst_rack) {
      if (!spine_.empty()) {
        if (pair_seq_.empty()) pair_seq_.resize(static_cast<std::size_t>(topo_.nodes()));
        std::vector<std::uint64_t>& row = pair_seq_[static_cast<std::size_t>(src)];
        if (row.empty()) row.assign(static_cast<std::size_t>(topo_.nodes()), 0);
        const int link =
            spine_link_of(src, dst, row[static_cast<std::size_t>(dst)]++, spine_links());
        spine_link_bytes_[static_cast<std::size_t>(link)] += bytes;
        hops[nhops++] = {spine_[static_cast<std::size_t>(link)].get(), spine_link_rate_};
      }
      hops[nhops++] = {tor_[static_cast<std::size_t>(dst_rack)].get(),
                       tor_rate_[static_cast<std::size_t>(dst_rack)]};
    }
  }
  hops[nhops++] = {ingress_[static_cast<std::size_t>(dst)].get(),
                   nic_rate_[static_cast<std::size_t>(dst)]};

  ++stats_.flows;
  stats_.bytes_injected += bytes;
  if (src == dst) {
    stats_.local_bytes += bytes;
  } else if (src_rack == dst_rack) {
    stats_.intra_rack_bytes += bytes;
  } else {
    stats_.cross_rack_bytes += bytes;
  }

  // Claim every finite link now; deliver when the last one finishes.
  // Submission order is path order (egress outward), and because
  // ServiceQueue::submit reserves its start slot synchronously, two
  // flows sent back-to-back contend FIFO on every shared link.
  int links = 0;
  for (int h = 0; h < nhops; ++h) {
    if (hops[h].rate > 0) ++links;
  }
  if (links == 0) {
    // Every layer non-blocking (only possible with all-zero oversubs
    // and... never for the NIC, which is always finite). Defensive:
    // still deliver through the event queue for stable ordering.
    stats_.bytes_delivered += bytes;
    sim_.in(0, std::move(on_delivered));
    return;
  }
  const JoinId flow = sim_.join(links, [this, bytes, done = std::move(on_delivered)] {
    stats_.bytes_delivered += bytes;
    done();
  });
  for (int h = 0; h < nhops; ++h) {
    if (hops[h].rate > 0) hops[h].link->submit(bytes / hops[h].rate, sim_.leg(flow));
  }
}

Seconds Fabric::ideal_flow_s(int src, int dst, double bytes) const {
  require(src >= 0 && src < topo_.nodes(), "Fabric: bad source node");
  require(dst >= 0 && dst < topo_.nodes(), "Fabric: bad destination node");
  double min_rate = nic_rate_[static_cast<std::size_t>(dst)];
  if (src != dst) {
    min_rate = std::min(min_rate, nic_rate_[static_cast<std::size_t>(src)]);
    const int sr = topo_.rack_of[static_cast<std::size_t>(src)];
    const int dr = topo_.rack_of[static_cast<std::size_t>(dst)];
    if (tor_rate_[static_cast<std::size_t>(sr)] > 0) {
      min_rate = std::min(min_rate, tor_rate_[static_cast<std::size_t>(sr)]);
    }
    if (sr != dr) {
      // A flow rides exactly one ECMP link, so the idle-fabric floor
      // sees the per-link rate (== spine_rate_ when single-path).
      if (spine_link_rate_ > 0) min_rate = std::min(min_rate, spine_link_rate_);
      if (tor_rate_[static_cast<std::size_t>(dr)] > 0) {
        min_rate = std::min(min_rate, tor_rate_[static_cast<std::size_t>(dr)]);
      }
    }
  }
  return bytes / min_rate;
}

FabricStats Fabric::stats() const {
  FabricStats s = stats_;
  s.spine_links = spine_links();
  s.spine_link_bytes = spine_link_bytes_;
  for (const auto& link : spine_) s.spine_busy_s += link->busy_s();
  return s;
}

void FlowRouter::shuffle(int dst, const std::vector<std::pair<int, double>>& sources,
                         double bytes, Callback on_done) {
  require(static_cast<bool>(on_done), "FlowRouter: null completion callback");
  double total = 0;
  int flows = 0;
  for (const auto& [node, weight] : sources) {
    if (weight > 0) {
      total += weight;
      ++flows;
    }
  }
  if (total <= 0) {
    fabric_.send(dst, dst, bytes, std::move(on_done));
    return;
  }
  Simulation& sim = fabric_.simulation();
  const JoinId shuffle = sim.join(flows, std::move(on_done));
  for (const auto& [node, weight] : sources) {
    if (weight <= 0) continue;
    fabric_.send(node, dst, bytes * (weight / total), sim.leg(shuffle));
  }
}

}  // namespace bvl::sim
