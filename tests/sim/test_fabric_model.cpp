// Fabric differential suite: the modeled datacenter fabric
// (sim/network) replayed against a scalar reference model. The
// reference re-derives every link rate with the same arithmetic and
// walks the flows in submission order with plain max()/+ bookkeeping,
// so the event-queue replay must reproduce it EXACTLY — equality on
// doubles, not tolerance — plus the conservation laws the ledger
// promises: bytes injected equal bytes delivered, no link's busy
// integral exceeds capacity x elapsed time, and an uncontended flow
// completes in the bottleneck-link closed form max-over-hops.
//
// The degenerate checks tie the fabric to the rack replay: a one-node
// rack's fabric (everything local) must replay all six paper
// workloads identically to the per-node NIC queue it replaces, and
// fabric-mode service runs must honor the same determinism
// contract as the default path (byte-identical across executor
// widths and reruns, distinct across seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "arch/server_config.hpp"
#include "core/characterizer.hpp"
#include "core/cluster_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/network/fabric.hpp"
#include "sim/network/topology.hpp"
#include "sim/resource.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

// Tier-1 runs the multipath stress differential at a quick scale; the
// slow tier recompiles this file at BVL_FABRIC_FLOWS=1000000 (see
// tests/CMakeLists.txt) so the ECMP ledger is exercised at fleet scale.
#ifndef BVL_FABRIC_FLOWS
#define BVL_FABRIC_FLOWS 20000
#endif

namespace bvl::sim {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference model
// ---------------------------------------------------------------------------

struct RefLink {
  Seconds free_at = 0;
  Seconds busy = 0;
  std::uint64_t requests = 0;

  Seconds claim(Seconds t, double svc) {
    Seconds start = std::max(t, free_at);
    free_at = start + svc;
    busy += svc;
    ++requests;
    return free_at;
  }
};

/// Re-derives the fabric's link rates with the same summation order
/// and replays flows with scalar arithmetic: per link, start =
/// max(send time, link free); flow delivered when its slowest link
/// finishes. This is the whole timing model in ~30 lines — anything
/// the ServiceQueue replay does differently is a bug in one of them.
struct RefFabric {
  Topology topo;
  std::vector<double> nic;
  std::vector<double> tor_rate;
  double spine_rate = 0;
  double spine_link_rate = 0;
  std::vector<RefLink> egress, ingress, tor;
  // ECMP spine: k parallel links at spine_rate/k each. Flows pick a
  // link by the same published hash the fabric uses, keyed on the
  // (src, dst) pair's running flow count.
  std::vector<RefLink> spine;
  std::vector<double> spine_bytes;
  std::map<std::pair<int, int>, std::uint64_t> pair_seq;

  RefFabric(Topology t, std::vector<double> rates) : topo(std::move(t)), nic(std::move(rates)) {
    const int nracks = topo.racks();
    tor_rate.assign(static_cast<std::size_t>(nracks), 0.0);
    double total = 0;
    for (int n = 0; n < topo.nodes(); ++n) {
      tor_rate[static_cast<std::size_t>(topo.rack_of[static_cast<std::size_t>(n)])] +=
          nic[static_cast<std::size_t>(n)];
      total += nic[static_cast<std::size_t>(n)];
    }
    for (int r = 0; r < nracks; ++r) {
      tor_rate[static_cast<std::size_t>(r)] =
          topo.tor_oversub > 0 ? tor_rate[static_cast<std::size_t>(r)] / topo.tor_oversub : 0;
    }
    if (nracks > 1 && topo.spine_oversub > 0) spine_rate = total / topo.spine_oversub;
    spine_link_rate = spine_rate / static_cast<double>(topo.spine_multipath);
    spine.resize(static_cast<std::size_t>(topo.spine_multipath));
    spine_bytes.assign(static_cast<std::size_t>(topo.spine_multipath), 0.0);
    egress.resize(static_cast<std::size_t>(topo.nodes()));
    ingress.resize(static_cast<std::size_t>(topo.nodes()));
    tor.resize(static_cast<std::size_t>(nracks));
  }

  Seconds send(Seconds t, int src, int dst, double bytes) {
    Seconds done = t;
    auto hop = [&](RefLink& l, double rate) {
      if (rate <= 0) return;
      done = std::max(done, l.claim(t, bytes / rate));
    };
    const int sr = topo.rack_of[static_cast<std::size_t>(src)];
    const int dr = topo.rack_of[static_cast<std::size_t>(dst)];
    if (src != dst) {
      hop(egress[static_cast<std::size_t>(src)], nic[static_cast<std::size_t>(src)]);
      hop(tor[static_cast<std::size_t>(sr)], tor_rate[static_cast<std::size_t>(sr)]);
      if (sr != dr) {
        if (spine_rate > 0) {
          int link = Fabric::spine_link_of(src, dst, pair_seq[{src, dst}]++,
                                           static_cast<int>(spine.size()));
          spine_bytes[static_cast<std::size_t>(link)] += bytes;
          hop(spine[static_cast<std::size_t>(link)], spine_link_rate);
        }
        hop(tor[static_cast<std::size_t>(dr)], tor_rate[static_cast<std::size_t>(dr)]);
      }
    }
    hop(ingress[static_cast<std::size_t>(dst)], nic[static_cast<std::size_t>(dst)]);
    return done;
  }
};

struct FlowSpec {
  Seconds at = 0;
  int src = 0;
  int dst = 0;
  double bytes = 0;
};

Topology random_topology(Pcg32& rng) {
  const double oversubs[] = {0.0, 0.5, 1.0, 2.0, 8.0};
  int racks = static_cast<int>(rng.uniform(1, 3));
  int per_rack = static_cast<int>(rng.uniform(1, 4));
  Topology topo = Topology::uniform(racks, per_rack,
                                    oversubs[rng.uniform(0, 4)], oversubs[rng.uniform(0, 4)]);
  // Half the modeled-spine configs run an ECMP spine of 2-4 links.
  if (topo.racks() > 1 && topo.spine_oversub > 0 && rng.chance(0.5)) {
    topo.spine_multipath = static_cast<int>(rng.uniform(2, 4));
  }
  return topo;
}

TEST(FabricModel, RandomizedDifferentialAgainstScalarReference) {
  Pcg32 rng(2024, 0xfab);
  for (int cfg = 0; cfg < 30; ++cfg) {
    Topology topo = random_topology(rng);
    const int nodes = topo.nodes();
    std::vector<double> rates;
    for (int n = 0; n < nodes; ++n) rates.push_back(rng.uniform_real(1e6, 2e8));

    std::vector<FlowSpec> flows(rng.uniform(1, 200));
    Seconds t = 0;
    for (auto& f : flows) {
      t += rng.exponential(50.0);  // bursty enough to queue on shared links
      f.at = t;
      f.src = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(nodes - 1)));
      f.dst = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(nodes - 1)));
      f.bytes = rng.chance(0.05) ? 0.0 : rng.uniform_real(1.0, 5e8);
    }

    Simulation sim;
    Fabric fabric(sim, topo, rates);
    std::vector<Seconds> delivered(flows.size(), -1);
    double injected = 0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowSpec& f = flows[i];
      injected += f.bytes;
      sim.at(f.at, [&fabric, &delivered, &sim, f, i] {
        fabric.send(f.src, f.dst, f.bytes, [&delivered, &sim, i] { delivered[i] = sim.now(); });
      });
    }
    sim.run();

    RefFabric ref(topo, rates);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowSpec& f = flows[i];
      // Exact equality: both sides run max(now, free_at) and
      // free_at += bytes/rate on the same operands in the same order.
      EXPECT_EQ(delivered[i], ref.send(f.at, f.src, f.dst, f.bytes))
          << "cfg " << cfg << " flow " << i;
    }

    // Conservation: everything injected was delivered, exactly once.
    FabricStats st = fabric.stats();
    EXPECT_TRUE(st.modeled);
    EXPECT_EQ(st.flows, flows.size());
    // Delivered accumulates in completion order, injected in send
    // order — the sums agree to rounding, not bitwise.
    EXPECT_NEAR(st.bytes_injected, st.bytes_delivered, 1e-9 * std::max(1.0, injected));
    EXPECT_NEAR(st.bytes_injected, injected, 1e-9 * std::max(1.0, injected));
    EXPECT_NEAR(st.local_bytes + st.intra_rack_bytes + st.cross_rack_bytes, st.bytes_injected,
                1e-9 * std::max(1.0, injected));

    // Per-link busy integral: matches the reference exactly and never
    // exceeds capacity x elapsed time (a serialized link cannot be
    // busy longer than the clock ran).
    const Seconds end = sim.now();
    auto check_link = [&](const ServiceQueue& q, const RefLink& r, const char* what) {
      EXPECT_EQ(q.busy_s(), r.busy) << "cfg " << cfg << " " << what;
      EXPECT_EQ(q.requests(), r.requests) << "cfg " << cfg << " " << what;
      EXPECT_LE(q.busy_s(), end * (1 + 1e-12) + 1e-12) << "cfg " << cfg << " " << what;
    };
    for (int n = 0; n < nodes; ++n) {
      check_link(fabric.egress(n), ref.egress[static_cast<std::size_t>(n)], "egress");
      check_link(fabric.ingress(n), ref.ingress[static_cast<std::size_t>(n)], "ingress");
    }
    for (int r = 0; r < topo.racks(); ++r) {
      check_link(fabric.tor(r), ref.tor[static_cast<std::size_t>(r)], "tor");
    }
    if (fabric.has_spine()) {
      ASSERT_EQ(fabric.spine_links(), static_cast<int>(ref.spine.size())) << "cfg " << cfg;
      ASSERT_EQ(st.spine_links, fabric.spine_links()) << "cfg " << cfg;
      double routed = 0;
      for (int l = 0; l < fabric.spine_links(); ++l) {
        check_link(fabric.spine_link(l), ref.spine[static_cast<std::size_t>(l)], "spine link");
        // The per-link byte ledger matches the reference's hash-led
        // routing exactly, link by link.
        EXPECT_EQ(st.spine_link_bytes[static_cast<std::size_t>(l)],
                  ref.spine_bytes[static_cast<std::size_t>(l)])
            << "cfg " << cfg << " spine link " << l;
        routed += st.spine_link_bytes[static_cast<std::size_t>(l)];
      }
      // Conservation across the ECMP group: what the links carried is
      // exactly the cross-rack traffic.
      EXPECT_NEAR(routed, st.cross_rack_bytes, 1e-9 * std::max(1.0, st.cross_rack_bytes))
          << "cfg " << cfg;
    }
  }
}

TEST(FabricModel, UncontendedFlowMatchesBottleneckClosedForm) {
  Pcg32 rng(7, 0xb0);
  for (int cfg = 0; cfg < 20; ++cfg) {
    Topology topo = random_topology(rng);
    const int nodes = topo.nodes();
    std::vector<double> rates;
    for (int n = 0; n < nodes; ++n) rates.push_back(rng.uniform_real(1e6, 2e8));
    int src = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(nodes - 1)));
    int dst = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(nodes - 1)));
    double bytes = rng.uniform_real(1.0, 1e9);

    // On an idle fabric the pipelined flow completes when its slowest
    // link does: max-over-hops(bytes/rate), which is ideal_flow_s.
    Simulation sim;
    Fabric fabric(sim, topo, rates);
    Seconds delivered = -1;
    fabric.send(src, dst, bytes, [&] { delivered = sim.now(); });
    sim.run();
    EXPECT_EQ(delivered, fabric.ideal_flow_s(src, dst, bytes)) << "cfg " << cfg;

    // And the closed form really is the max over the traversed hops.
    RefFabric ref(topo, rates);
    Seconds by_hand = 0;
    auto hop = [&](double rate) {
      if (rate > 0) by_hand = std::max(by_hand, bytes / rate);
    };
    const int sr = topo.rack_of[static_cast<std::size_t>(src)];
    const int dr = topo.rack_of[static_cast<std::size_t>(dst)];
    if (src != dst) {
      hop(ref.nic[static_cast<std::size_t>(src)]);
      hop(ref.tor_rate[static_cast<std::size_t>(sr)]);
      if (sr != dr) {
        // A single flow rides exactly one ECMP link: spine_rate/k.
        hop(ref.spine_rate > 0 ? ref.spine_link_rate : 0.0);
        hop(ref.tor_rate[static_cast<std::size_t>(dr)]);
      }
    }
    hop(ref.nic[static_cast<std::size_t>(dst)]);
    EXPECT_EQ(delivered, by_hand) << "cfg " << cfg;
  }
}

TEST(FabricModel, ValidationRejectsMalformedInput) {
  Simulation sim;
  Topology topo = Topology::uniform(2, 2);
  EXPECT_THROW(Fabric(sim, topo, {1e6, 1e6}), Error);             // rate count mismatch
  EXPECT_THROW(Fabric(sim, topo, {1e6, 1e6, 1e6, 0.0}), Error);   // non-positive NIC
  Topology gap;
  gap.rack_of = {0, 2};  // rack 1 missing
  EXPECT_THROW(gap.validate(), Error);
  Topology neg;
  neg.rack_of = {0};
  neg.spine_oversub = -1;
  EXPECT_THROW(neg.validate(), Error);

  // Multipath knob: k = 0 is meaningless, and k > 1 needs a spine the
  // model actually replays (more than one rack AND finite oversub).
  Topology zerok = Topology::uniform(2, 2);
  zerok.spine_multipath = 0;
  EXPECT_THROW(zerok.validate(), Error);
  Topology single_rack = Topology::uniform(1, 4);
  single_rack.spine_multipath = 2;
  EXPECT_THROW(single_rack.validate(), Error);
  Topology nonblocking = Topology::uniform(2, 2, /*spine_oversub=*/0.0);
  nonblocking.spine_multipath = 2;
  EXPECT_THROW(nonblocking.validate(), Error);

  Fabric fabric(sim, topo, {1e6, 1e6, 1e6, 1e6});
  EXPECT_THROW(fabric.send(-1, 0, 1.0, [] {}), Error);
  EXPECT_THROW(fabric.send(0, 4, 1.0, [] {}), Error);
  EXPECT_THROW(fabric.send(0, 1, -1.0, [] {}), Error);
}

TEST(NicPreset, IdentityAndCalibrationContract) {
  // The 1GbE preset IS the historical expression, bit for bit — this
  // equality is what keeps every pre-preset golden byte-identical.
  const NicPreset& base = nic_preset(NicPresetId::k1GbE);
  EXPECT_EQ(base.endpoint_bytes_per_s(117.0, 0.7), 117.0 * 1e6 * 0.7);
  EXPECT_EQ(base.endpoint_bytes_per_s(117.0, 1.0), 117.0 * 1e6 * 1.0);

  // Faster presets: absolute rates grow with the line speed at both
  // class anchors, while the little class's achievable FRACTION of
  // line rate falls — the wimpy-node inversion the presets calibrate.
  double big1 = base.endpoint_bytes_per_s(117.0, 1.0);
  double lit1 = base.endpoint_bytes_per_s(117.0, 0.7);
  double prev_lit_frac = lit1 / (117.0 * 1e6);
  for (NicPresetId id : {NicPresetId::k10GbE, NicPresetId::k40GbE}) {
    const NicPreset& p = nic_preset(id);
    p.validate();
    double big = p.endpoint_bytes_per_s(117.0, 1.0);
    double lit = p.endpoint_bytes_per_s(117.0, 0.7);
    EXPECT_GT(big, big1) << p.name;
    EXPECT_GT(lit, lit1) << p.name;
    double lit_frac = lit / (117.0 * p.line_multiple * 1e6);
    EXPECT_LT(lit_frac, prev_lit_frac) << p.name;
    prev_lit_frac = lit_frac;
    // Blending is monotone in the server's 1GbE efficiency and
    // clamped at the anchors.
    EXPECT_LE(p.endpoint_bytes_per_s(117.0, 0.7), p.endpoint_bytes_per_s(117.0, 0.85));
    EXPECT_LE(p.endpoint_bytes_per_s(117.0, 0.85), p.endpoint_bytes_per_s(117.0, 1.0));
    EXPECT_EQ(p.endpoint_bytes_per_s(117.0, 0.5), p.endpoint_bytes_per_s(117.0, 0.7));
    EXPECT_EQ(p.endpoint_bytes_per_s(117.0, 1.2), p.endpoint_bytes_per_s(117.0, 1.0));
  }

  // Throw contract: bad endpoints and unknown ids are rejected.
  EXPECT_THROW(base.endpoint_bytes_per_s(0.0, 0.7), Error);
  EXPECT_THROW(base.endpoint_bytes_per_s(-1.0, 0.7), Error);
  EXPECT_THROW(base.endpoint_bytes_per_s(117.0, 0.0), Error);
  EXPECT_THROW(nic_preset(static_cast<NicPresetId>(99)), Error);
  NicPreset bad = base;
  bad.little_eff = 0.0;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(FabricModel, SpineLinkHashIsDeterministicInRangeAndSpreads) {
  // Same (src, dst, seq, k) always lands on the same link, in range.
  for (int k : {1, 2, 3, 4, 7}) {
    std::vector<int> hits(static_cast<std::size_t>(k), 0);
    for (int src = 0; src < 6; ++src) {
      for (int dst = 0; dst < 6; ++dst) {
        for (std::uint64_t seq = 0; seq < 32; ++seq) {
          int l = Fabric::spine_link_of(src, dst, seq, k);
          ASSERT_GE(l, 0);
          ASSERT_LT(l, k);
          EXPECT_EQ(l, Fabric::spine_link_of(src, dst, seq, k));
          ++hits[static_cast<std::size_t>(l)];
        }
      }
    }
    // k = 1 degenerates to THE spine; k > 1 uses every link.
    for (int l = 0; l < k; ++l) EXPECT_GT(hits[static_cast<std::size_t>(l)], 0) << "k " << k;
  }
  // Successive flows of ONE pair stripe across links too (per-pair
  // sequence numbers feed the hash), so a single hot pair cannot pin
  // one link while the others idle.
  std::vector<int> pair_hits(4, 0);
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    ++pair_hits[static_cast<std::size_t>(Fabric::spine_link_of(2, 5, seq, 4))];
  }
  for (int l = 0; l < 4; ++l) EXPECT_GT(pair_hits[static_cast<std::size_t>(l)], 0);
}

TEST(FabricModel, SinglePathSpineIsBitwiseUnchangedByMultipathMachinery) {
  // k = 1 must be invisible: spine_rate/1.0 is exact and every hash
  // resolves to link 0, so delivered times equal a plain pre-multipath
  // scalar replay with ONE spine link and no hash in the path.
  Pcg32 rng(11, 0x51);
  Topology topo = Topology::uniform(2, 2, /*spine_oversub=*/4.0, /*tor_oversub=*/2.0);
  ASSERT_EQ(topo.spine_multipath, 1);
  std::vector<double> rates{1e7, 2e7, 3e7, 4e7};

  Simulation sim;
  Fabric fabric(sim, topo, rates);
  ASSERT_EQ(fabric.spine_links(), 1);
  EXPECT_EQ(fabric.spine_link_rate(), fabric.spine_rate());

  RefFabric shape(topo, rates);  // rate derivation only
  RefLink egress[4], ingress[4], tor[2], spine;
  std::vector<FlowSpec> flows(300);
  Seconds t = 0;
  for (auto& f : flows) {
    t += rng.exponential(40.0);
    f.at = t;
    f.src = static_cast<int>(rng.uniform(0, 3));
    f.dst = static_cast<int>(rng.uniform(0, 3));
    f.bytes = rng.uniform_real(1.0, 5e8);
  }
  std::vector<Seconds> delivered(flows.size(), -1);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    sim.at(f.at, [&fabric, &delivered, &sim, f, i] {
      fabric.send(f.src, f.dst, f.bytes, [&delivered, &sim, i] { delivered[i] = sim.now(); });
    });
  }
  sim.run();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    Seconds done = f.at;
    auto hop = [&](RefLink& l, double rate) {
      if (rate > 0) done = std::max(done, l.claim(f.at, f.bytes / rate));
    };
    const int sr = topo.rack_of[static_cast<std::size_t>(f.src)];
    const int dr = topo.rack_of[static_cast<std::size_t>(f.dst)];
    if (f.src != f.dst) {
      hop(egress[f.src], shape.nic[static_cast<std::size_t>(f.src)]);
      hop(tor[sr], shape.tor_rate[static_cast<std::size_t>(sr)]);
      if (sr != dr) {
        hop(spine, shape.spine_rate);  // the historical single path
        hop(tor[dr], shape.tor_rate[static_cast<std::size_t>(dr)]);
      }
    }
    hop(ingress[f.dst], shape.nic[static_cast<std::size_t>(f.dst)]);
    EXPECT_EQ(delivered[i], done) << "flow " << i;
  }
  EXPECT_EQ(fabric.spine_link(0).busy_s(), spine.busy);
  EXPECT_EQ(fabric.spine_link(0).requests(), spine.requests);
}

TEST(FabricModel, MultipathLedgerConservesAndRerunsAreBitIdentical) {
  // Explicit k = 4 ECMP spine under bursty load: the per-link byte
  // ledger sums to the cross-rack traffic, the spine busy integral is
  // the sum over links, every link carries traffic, and an identical
  // rerun reproduces every delivered timestamp and ledger row bitwise.
  Topology topo = Topology::uniform(2, 3, /*spine_oversub=*/8.0, /*tor_oversub=*/2.0);
  topo.spine_multipath = 4;
  topo.validate();
  std::vector<double> rates{1e7, 2e7, 3e7, 1.5e7, 2.5e7, 3.5e7};

  Pcg32 gen(77, 0xec);
  std::vector<FlowSpec> flows(800);
  Seconds t = 0;
  for (auto& f : flows) {
    t += gen.exponential(60.0);
    f.at = t;
    f.src = static_cast<int>(gen.uniform(0, 5));
    f.dst = static_cast<int>(gen.uniform(0, 5));
    f.bytes = gen.uniform_real(1.0, 4e8);
  }

  auto replay = [&](std::vector<Seconds>& delivered) {
    Simulation sim;
    Fabric fabric(sim, topo, rates);
    delivered.assign(flows.size(), -1);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowSpec& f = flows[i];
      sim.at(f.at, [&fabric, &delivered, &sim, f, i] {
        fabric.send(f.src, f.dst, f.bytes, [&delivered, &sim, i] { delivered[i] = sim.now(); });
      });
    }
    sim.run();
    return fabric.stats();
  };

  std::vector<Seconds> first, second;
  FabricStats a = replay(first);
  FabricStats b = replay(second);

  ASSERT_EQ(a.spine_links, 4);
  ASSERT_EQ(a.spine_link_bytes.size(), 4u);
  double routed = 0;
  for (int l = 0; l < 4; ++l) {
    EXPECT_GT(a.spine_link_bytes[static_cast<std::size_t>(l)], 0.0) << "link " << l;
    routed += a.spine_link_bytes[static_cast<std::size_t>(l)];
  }
  EXPECT_NEAR(routed, a.cross_rack_bytes, 1e-9 * std::max(1.0, a.cross_rack_bytes));
  EXPECT_NEAR(a.bytes_injected, a.bytes_delivered, 1e-9 * std::max(1.0, a.bytes_injected));

  // Bitwise rerun stability: the hash and per-pair sequences are pure
  // state, no global RNG or address-dependent ordering leaks in.
  EXPECT_EQ(first, second);
  EXPECT_EQ(a.spine_link_bytes, b.spine_link_bytes);
  EXPECT_EQ(a.spine_busy_s, b.spine_busy_s);
  EXPECT_EQ(a.cross_rack_bytes, b.cross_rack_bytes);
}

TEST(FabricModel, MultipathStressDifferentialAtScale) {
  // The 1M-flow (slow tier) ECMP differential: a 2x2 fabric with a
  // 4-link 2:1 spine replayed flow-for-flow against the scalar
  // reference, then the full conservation ledger at scale.
  const int kFlows = BVL_FABRIC_FLOWS;
  Topology topo = Topology::uniform(2, 2, /*spine_oversub=*/2.0, /*tor_oversub=*/0.0);
  topo.spine_multipath = 4;
  topo.validate();
  std::vector<double> rates{2e8, 1e8, 1.5e8, 2.5e8};

  Pcg32 gen(5, 0x1a);
  Simulation sim;
  Fabric fabric(sim, topo, rates);
  RefFabric ref(topo, rates);
  double injected = 0;
  std::vector<Seconds> delivered(static_cast<std::size_t>(kFlows), -1);
  std::vector<Seconds> expected(static_cast<std::size_t>(kFlows), -1);
  Seconds t = 0;
  for (int i = 0; i < kFlows; ++i) {
    t += gen.exponential(2000.0);
    int src = static_cast<int>(gen.uniform(0, 3));
    int dst = static_cast<int>(gen.uniform(0, 3));
    double bytes = gen.uniform_real(1.0, 2e6);
    injected += bytes;
    expected[static_cast<std::size_t>(i)] = ref.send(t, src, dst, bytes);
    sim.at(t, [&fabric, &delivered, &sim, src, dst, bytes, i] {
      fabric.send(src, dst, bytes,
                  [&delivered, &sim, i] { delivered[static_cast<std::size_t>(i)] = sim.now(); });
    });
  }
  sim.run();

  // Exact per-flow agreement (same operands, same order) and the
  // conservation laws at whatever scale this tier compiled in.
  EXPECT_EQ(delivered, expected);
  FabricStats st = fabric.stats();
  EXPECT_EQ(st.flows, static_cast<std::uint64_t>(kFlows));
  EXPECT_NEAR(st.bytes_injected, st.bytes_delivered, 1e-9 * std::max(1.0, injected));
  EXPECT_NEAR(st.bytes_injected, injected, 1e-9 * std::max(1.0, injected));
  double routed = 0, busy = 0;
  ASSERT_EQ(st.spine_links, 4);
  for (int l = 0; l < st.spine_links; ++l) {
    EXPECT_EQ(st.spine_link_bytes[static_cast<std::size_t>(l)],
              ref.spine_bytes[static_cast<std::size_t>(l)])
        << "link " << l;
    EXPECT_EQ(fabric.spine_link(l).busy_s(), ref.spine[static_cast<std::size_t>(l)].busy);
    routed += st.spine_link_bytes[static_cast<std::size_t>(l)];
    busy += fabric.spine_link(l).busy_s();
  }
  EXPECT_NEAR(routed, st.cross_rack_bytes, 1e-9 * std::max(1.0, st.cross_rack_bytes));
  EXPECT_EQ(st.spine_busy_s, busy);
}

TEST(FlowRouter, ShuffleDecomposesProportionallyAndConserves) {
  Simulation sim;
  Topology topo = Topology::uniform(2, 2);  // nodes 0,1 rack 0; 2,3 rack 1
  Fabric fabric(sim, topo, {1e7, 2e7, 3e7, 4e7});
  FlowRouter router(fabric);

  // Weighted sources: node 2's zero weight is skipped, the rest split
  // 8 MB as 2:1:1 — one local, one cross-rack, one intra-rack flow.
  int done = 0;
  router.shuffle(0, {{0, 2.0}, {1, 1.0}, {2, 0.0}, {3, 1.0}}, 8e6, [&] { ++done; });
  sim.run();
  EXPECT_EQ(done, 1);  // one completion for the whole decomposition
  FabricStats st = fabric.stats();
  EXPECT_EQ(st.flows, 3u);
  EXPECT_EQ(st.bytes_injected, 8e6);
  EXPECT_EQ(st.bytes_delivered, 8e6);
  EXPECT_EQ(st.local_bytes, 4e6);       // node 0 -> 0, weight 2/4
  EXPECT_EQ(st.intra_rack_bytes, 2e6);  // node 1 -> 0
  EXPECT_EQ(st.cross_rack_bytes, 2e6);  // node 3 -> 0
  EXPECT_EQ(fabric.ingress(0).requests(), 3u);  // every flow pays dst ingress
  EXPECT_EQ(fabric.egress(0).requests(), 0u);   // local flow skips egress
  EXPECT_EQ(fabric.egress(2).requests(), 0u);   // zero weight never sent

  // No usable source (a map task, or an all-zero weight vector): the
  // whole volume is one local flow — still through dst's ingress NIC.
  Simulation sim2;
  Fabric fabric2(sim2, topo, {1e7, 2e7, 3e7, 4e7});
  FlowRouter router2(fabric2);
  int done2 = 0;
  router2.shuffle(1, {}, 5e6, [&] { ++done2; });
  router2.shuffle(1, {{0, 0.0}, {2, -3.0}}, 5e6, [&] { ++done2; });
  sim2.run();
  EXPECT_EQ(done2, 2);
  EXPECT_EQ(fabric2.stats().local_bytes, 1e7);
  EXPECT_EQ(fabric2.ingress(1).requests(), 2u);
  EXPECT_EQ(fabric2.egress(0).requests(), 0u);
}

// ---------------------------------------------------------------------------
// Degenerate one-node fabric == the per-node NIC queue
// ---------------------------------------------------------------------------

core::Characterizer& shared_ch() {
  static core::Characterizer ch;  // trace cache shared across the suite
  return ch;
}

TEST(FabricModel, OneNodeRackFabricMatchesTheNicQueueOnAllSixWorkloads) {
  // fabric.modeled on a one-node rack routes every byte as a local
  // flow that pays only the node's ingress NIC — arithmetic-identical
  // to the NIC queue the unmodeled replay charges each task's shuffle
  // volume at. One 1 GB job of each paper workload on either server
  // must replay the same to <= 1e-9 (they are in fact bit-identical).
  core::Characterizer& ch = shared_ch();
  core::MixOptions modeled;
  modeled.fabric.modeled = true;  // empty topology -> one rack
  for (const auto& server : {arch::xeon_e5_2420(), arch::atom_c2758()}) {
    const std::vector<core::NodeSpec> rack = {{server, 1}};
    std::uint64_t flows = 0;
    for (wl::WorkloadId w : wl::all_workloads()) {
      const std::vector<core::JobRequest> job = {{w, 1 * GB}};
      core::MixResult a = core::simulate_mix(ch, job, rack, core::MixPolicy::kEarliestFinish, 1);
      core::MixResult b =
          core::simulate_mix(ch, job, rack, core::MixPolicy::kEarliestFinish, 1, modeled);
      auto near = [&](double x, double y, const char* what) {
        EXPECT_LE(std::abs(x - y), 1e-9 * std::max({std::abs(x), std::abs(y), 1.0}))
            << server.name << "/" << wl::short_name(w) << " " << what;
      };
      near(a.makespan, b.makespan, "makespan");
      near(a.total_energy, b.total_energy, "total energy");
      // The modeled run really went through the fabric, all of it local.
      EXPECT_FALSE(a.fabric.modeled);
      EXPECT_TRUE(b.fabric.modeled);
      EXPECT_EQ(b.fabric.local_bytes, b.fabric.bytes_injected)
          << server.name << "/" << wl::short_name(w);
      flows += b.fabric.flows;
    }
    EXPECT_GT(flows, 0u) << server.name;
  }
}

// ---------------------------------------------------------------------------
// Determinism contract (mirrors test_service_sim.cpp)
// ---------------------------------------------------------------------------

std::vector<core::TenantWorkload> two_tenants() {
  core::TenantWorkload batch;
  batch.tenant = {"batch", 1.0, 0, 1.0};
  batch.mix = {{wl::WorkloadId::kWordCount, 1 * GB}, {wl::WorkloadId::kGrep, 1 * GB}};
  core::TenantWorkload adhoc;
  adhoc.tenant = {"adhoc", 1.0, 0, 1.0};
  adhoc.mix = {{wl::WorkloadId::kSort, 1 * GB}};
  return {batch, adhoc};
}

core::ServiceOptions fabric_service_opts() {
  core::ServiceOptions opts;
  opts.arrival_rate = 0.05;
  opts.diurnal.amplitude = 0.3;
  opts.horizon = 3600.0;
  opts.warmup = 300.0;
  opts.seed = 1;
  // Stripe the 9 nodes across two racks (Xeons 0/1 land in different
  // racks) with a 4:1 spine. Striping — not class-per-rack — is what
  // guarantees cross-rack shuffle: earliest-finish placement
  // concentrates this light stream on the two fast Xeons, and with
  // one Xeon per rack their reduces must fetch over the spine.
  opts.policy = core::MixPolicy::kEarliestFinish;
  opts.mix.fabric.modeled = true;
  opts.mix.fabric.topology.rack_of = {0, 1, 0, 1, 0, 1, 0, 1, 0};
  opts.mix.fabric.topology.spine_oversub = 4.0;
  return opts;
}

TEST(FabricDeterminism, SameSeedByteIdenticalAcrossThreadsAndRuns) {
  auto rack = core::comparison_racks(4)[2];  // 2 Xeon + 7 Atom
  core::ServiceOptions opts = fabric_service_opts();
  core::ServiceResult a = core::simulate_service(shared_ch(), two_tenants(), rack, opts, 1);
  core::ServiceResult b = core::simulate_service(shared_ch(), two_tenants(), rack, opts, 2);
  core::ServiceResult c = core::simulate_service(shared_ch(), two_tenants(), rack, opts, 4);
  core::ServiceResult d = core::simulate_service(shared_ch(), two_tenants(), rack, opts, 2);
  auto expect_identical = [](const core::ServiceResult& x, const core::ServiceResult& y) {
    EXPECT_EQ(x.arrivals, y.arrivals);
    EXPECT_EQ(x.measured_jobs, y.measured_jobs);
    EXPECT_EQ(x.events_run, y.events_run);
    // Bitwise equality, not NEAR: the fabric replay is single-threaded
    // like the rest of the timeline; the executor pool only pre-warms
    // the trace cache.
    EXPECT_EQ(x.sojourn.mean, y.sojourn.mean);
    EXPECT_EQ(x.sojourn.p99, y.sojourn.p99);
    EXPECT_EQ(x.queue_delay.mean, y.queue_delay.mean);
    EXPECT_EQ(x.little_l, y.little_l);
    EXPECT_EQ(x.dynamic_energy, y.dynamic_energy);
    EXPECT_EQ(x.energy_per_job, y.energy_per_job);
    EXPECT_TRUE(x.fabric.modeled);
    EXPECT_EQ(x.fabric.flows, y.fabric.flows);
    EXPECT_EQ(x.fabric.bytes_injected, y.fabric.bytes_injected);
    EXPECT_EQ(x.fabric.bytes_delivered, y.fabric.bytes_delivered);
    EXPECT_EQ(x.fabric.local_bytes, y.fabric.local_bytes);
    EXPECT_EQ(x.fabric.intra_rack_bytes, y.fabric.intra_rack_bytes);
    EXPECT_EQ(x.fabric.cross_rack_bytes, y.fabric.cross_rack_bytes);
    EXPECT_EQ(x.fabric.spine_busy_s, y.fabric.spine_busy_s);
    EXPECT_EQ(x.fabric.spine_utilization, y.fabric.spine_utilization);
  };
  expect_identical(a, b);
  expect_identical(a, c);
  expect_identical(a, d);

  // The modeled fabric actually carried the shuffle: flows moved, the
  // ledger conserves them, and some crossed the spine.
  EXPECT_GT(a.fabric.flows, 0u);
  EXPECT_EQ(a.fabric.bytes_injected, a.fabric.bytes_delivered);
  EXPECT_GT(a.fabric.cross_rack_bytes, 0.0);
  EXPECT_GT(a.fabric.spine_busy_s, 0.0);
}

TEST(FabricDeterminism, DistinctSeedsDistinctStreams) {
  auto rack = core::comparison_racks(4)[2];
  core::ServiceOptions opts = fabric_service_opts();
  core::ServiceResult a = core::simulate_service(shared_ch(), two_tenants(), rack, opts);
  opts.seed = 2;
  core::ServiceResult b = core::simulate_service(shared_ch(), two_tenants(), rack, opts);
  EXPECT_TRUE(a.arrivals != b.arrivals || a.sojourn.mean != b.sojourn.mean ||
              a.fabric.bytes_injected != b.fabric.bytes_injected);
}

TEST(FabricDeterminism, TopologyMismatchIsRejected) {
  auto rack = core::comparison_racks(4)[2];  // 9 nodes
  core::ServiceOptions opts = fabric_service_opts();
  opts.mix.fabric.topology.rack_of = {0, 0, 1, 1};  // wrong node count
  EXPECT_THROW(core::simulate_service(shared_ch(), two_tenants(), rack, opts), Error);
}

}  // namespace
}  // namespace bvl::sim
