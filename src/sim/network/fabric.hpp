// Modeled datacenter fabric on the discrete-event kernel: every link
// of the Topology — per-node NIC egress/ingress, per-rack ToR fabric,
// the spine — is one sim::ServiceQueue, and a flow occupies each link
// on its path for bytes/rate seconds, FIFO behind whatever traffic is
// already queued there.
//
// Flow timing contract (the one the differential suite pins): a flow's
// links are claimed simultaneously at send() time and the flow is
// delivered when the LAST link finishes serving it — the pipelined
// (cut-through) approximation, so an uncontended flow completes in
// max-over-hops(bytes/rate), the bottleneck-link closed form, rather
// than the store-and-forward sum. Contention is per link: each
// ServiceQueue serializes its own backlog, so a saturated spine delays
// exactly the flows that traverse it.
//
// Routing contract: EVERY flow pays the destination node's ingress NIC
// for its full byte count — including node-local flows. That is
// deliberate: the analytic model (and the paper's measurement it was
// calibrated on) charges a task's whole shuffle volume at the NIC, so
// the destination-ingress demand of a modeled replay always sums to
// the analytic NIC term exactly, and the modeled fabric can only ADD
// time (source egress, ToR, spine queueing) on top of the closed
// form's floor — never undercut it. Remote flows additionally traverse
// src egress -> src ToR [-> spine -> dst ToR] -> dst ingress.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network/topology.hpp"
#include "sim/resource.hpp"

namespace bvl::sim {

/// Flow-conservation ledger plus the traffic split by how far each
/// flow travelled. `spine_utilization` is left 0 by the fabric itself
/// (it has no notion of a measurement window); callers that know the
/// makespan fill it as spine_busy_s / window.
struct FabricStats {
  bool modeled = false;         ///< false: the infinite-fabric default ran
  std::uint64_t flows = 0;
  double bytes_injected = 0;    ///< counted at send()
  double bytes_delivered = 0;   ///< counted when the last link finishes
  double local_bytes = 0;       ///< src == dst (never left the node)
  double intra_rack_bytes = 0;  ///< crossed the ToR, not the spine
  double cross_rack_bytes = 0;  ///< traversed the spine
  Seconds spine_busy_s = 0;     ///< summed over every ECMP spine link
  double spine_utilization = 0;
  int spine_links = 0;          ///< ECMP width (0: no spine was modeled)
  /// Bytes each ECMP spine link carried — the per-link half of the
  /// conservation ledger: these sum to cross_rack_bytes.
  std::vector<double> spine_link_bytes;
};

class Fabric {
 public:
  /// `nic_bytes_per_s[i]` is node i's NIC line rate; must match the
  /// topology's node count. ToR/spine capacities derive from the NIC
  /// aggregates (see topology.hpp).
  Fabric(Simulation& sim, Topology topo, std::vector<double> nic_bytes_per_s);

  /// Replays one flow of `bytes` from node `src` to node `dst`;
  /// `on_delivered` fires when its last link finishes (the links join
  /// on one Simulation::join record). Zero-byte flows still round-trip
  /// the event queue (via the ingress link) so callback order stays
  /// deterministic.
  void send(int src, int dst, double bytes, Callback on_delivered);

  /// Completion time of this flow on an idle fabric: the bottleneck-
  /// link closed form max-over-hops(bytes/rate).
  Seconds ideal_flow_s(int src, int dst, double bytes) const;

  Simulation& simulation() { return sim_; }
  const Topology& topology() const { return topo_; }
  int rack_of(int node) const { return topo_.rack_of[static_cast<std::size_t>(node)]; }
  double nic_rate(int node) const { return nic_rate_[static_cast<std::size_t>(node)]; }
  /// ToR fabric capacity of one rack in bytes/s; 0 = non-blocking.
  double tor_rate(int rack) const { return tor_rate_[static_cast<std::size_t>(rack)]; }
  /// Total spine capacity in bytes/s (all ECMP links together); 0
  /// when the spine is non-blocking or the topology has a single rack.
  double spine_rate() const { return spine_rate_; }
  /// Capacity of one ECMP spine link: spine_rate / spine_multipath.
  double spine_link_rate() const { return spine_link_rate_; }

  ServiceQueue& ingress(int node) { return *ingress_[static_cast<std::size_t>(node)]; }
  const ServiceQueue& ingress(int node) const { return *ingress_[static_cast<std::size_t>(node)]; }
  ServiceQueue& egress(int node) { return *egress_[static_cast<std::size_t>(node)]; }
  ServiceQueue& tor(int rack) { return *tor_[static_cast<std::size_t>(rack)]; }
  bool has_spine() const { return !spine_.empty(); }
  int spine_links() const { return static_cast<int>(spine_.size()); }
  /// The first ECMP link — THE spine under the historical single-path
  /// (spine_multipath = 1) configuration the differential suite pins.
  ServiceQueue& spine() { return *spine_.front(); }
  ServiceQueue& spine_link(int link) { return *spine_[static_cast<std::size_t>(link)]; }
  const ServiceQueue& spine_link(int link) const {
    return *spine_[static_cast<std::size_t>(link)];
  }
  /// Soonest time any ECMP spine link frees up — the live-backlog
  /// signal locality-aware placement reads (now when no spine).
  Seconds earliest_spine_free_at() const;

  /// Deterministic ECMP link choice: a SplitMix64-finalized hash of
  /// (src, dst, per-pair flow sequence number) mod `links`. Pure and
  /// static so the differential reference and the fabric route flows
  /// with one function; with links = 1 it is always 0.
  static int spine_link_of(int src, int dst, std::uint64_t seq, int links);

  /// Conservation ledger; spine_busy_s is folded in, spine_utilization
  /// stays 0 (the caller owns the window).
  FabricStats stats() const;

 private:
  Simulation& sim_;
  Topology topo_;
  std::vector<double> nic_rate_;
  std::vector<double> tor_rate_;   ///< per rack; 0 = non-blocking
  double spine_rate_ = 0;          ///< 0 = non-blocking / single rack
  double spine_link_rate_ = 0;     ///< spine_rate_ / spine_multipath
  std::vector<std::unique_ptr<ServiceQueue>> egress_;
  std::vector<std::unique_ptr<ServiceQueue>> ingress_;
  std::vector<std::unique_ptr<ServiceQueue>> tor_;
  /// ECMP spine links (empty = no spine modeled); size is the
  /// topology's spine_multipath.
  std::vector<std::unique_ptr<ServiceQueue>> spine_;
  std::vector<double> spine_link_bytes_;  ///< per-link ledger
  /// Per-(src, dst) flow sequence counters feeding the ECMP hash:
  /// pair_seq_[src][dst], a source's row sized on its first spine flow.
  std::vector<std::vector<std::uint64_t>> pair_seq_;
  FabricStats stats_;
};

/// Decomposes one reducer's shuffle into per-source flows and replays
/// them through the fabric. The per-task records carry only the total
/// shuffle volume (SimTask::net_bytes); the router splits it across
/// the nodes that produced the map outputs, weighted by how many of
/// the job's map tasks each node ran — the same proportional-fetch
/// assumption Hadoop's copier makes when every map output is the same
/// size.
class FlowRouter {
 public:
  explicit FlowRouter(Fabric& fabric) : fabric_(fabric) {}

  /// Sends bytes * weight/total from every (node, weight) source to
  /// `dst`; `on_done` fires when the last flow lands (the flows join on
  /// one Simulation::join record). Non-positive weights are skipped;
  /// with no usable source (a map task's HDFS read, a map-less job) the
  /// whole volume is one local flow — which still pays dst's ingress
  /// NIC, per the routing contract above.
  void shuffle(int dst, const std::vector<std::pair<int, double>>& sources, double bytes,
               Callback on_done);

  Fabric& fabric() { return fabric_; }

 private:
  Fabric& fabric_;
};

}  // namespace bvl::sim
