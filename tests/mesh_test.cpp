// Tests for the mesh module: topology math, XY routing, the analytical
// contention model, the flit-level wormhole network, and traffic
// generation. Includes property sweeps over mesh shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "mesh/analytical.hpp"
#include "mesh/flit.hpp"
#include "mesh/netmodel.hpp"
#include "mesh/topology.hpp"
#include "mesh/traffic.hpp"

namespace hpccsim::mesh {
namespace {

using sim::Time;

// ------------------------------------------------------------ topology --

TEST(Mesh2D, CoordinateRoundTrip) {
  const Mesh2D m(33, 16);
  EXPECT_EQ(m.node_count(), 528);
  for (NodeId id = 0; id < m.node_count(); ++id)
    EXPECT_EQ(m.id_of(m.coord_of(id)), id);
}

TEST(Mesh2D, NeighboursAndEdges) {
  const Mesh2D m(4, 3);
  // Interior node 5 = (1,1).
  EXPECT_EQ(m.neighbour(5, Dir::East), 6);
  EXPECT_EQ(m.neighbour(5, Dir::West), 4);
  EXPECT_EQ(m.neighbour(5, Dir::North), 1);
  EXPECT_EQ(m.neighbour(5, Dir::South), 9);
  // Corner 0 = (0,0).
  EXPECT_EQ(m.neighbour(0, Dir::West), -1);
  EXPECT_EQ(m.neighbour(0, Dir::North), -1);
  EXPECT_EQ(m.neighbour(0, Dir::East), 1);
  EXPECT_EQ(m.neighbour(0, Dir::South), 4);
}

TEST(Mesh2D, RejectsBadConstruction) {
  EXPECT_THROW(Mesh2D(0, 4), ContractError);
  EXPECT_THROW(Mesh2D(4, -1), ContractError);
}

TEST(Mesh2D, XyRouteGoesXThenY) {
  const Mesh2D m(5, 5);
  // (0,0) -> (3,2): 3 east hops then 2 south hops.
  const auto nodes = m.xy_path_nodes(0, m.id_of({3, 2}));
  const std::vector<NodeId> expected{0, 1, 2, 3, 8, 13};
  EXPECT_EQ(nodes, expected);
}

TEST(Mesh2D, RouteLengthEqualsManhattanDistance) {
  const Mesh2D m(7, 4);
  for (NodeId a = 0; a < m.node_count(); a += 3)
    for (NodeId b = 0; b < m.node_count(); b += 5)
      EXPECT_EQ(static_cast<std::int32_t>(m.xy_route(a, b).size()),
                m.distance(a, b));
}

TEST(Mesh2D, SelfRouteIsEmpty) {
  const Mesh2D m(3, 3);
  EXPECT_TRUE(m.xy_route(4, 4).empty());
}

// A property over shapes: every route stays inside the mesh and each
// step moves to an adjacent node.
class MeshShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MeshShapes, RoutesAreContiguousAdjacentPaths) {
  const auto [w, h] = GetParam();
  const Mesh2D m(w, h);
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = static_cast<NodeId>(rng.below(m.node_count()));
    const auto b = static_cast<NodeId>(rng.below(m.node_count()));
    const auto nodes = m.xy_path_nodes(a, b);
    ASSERT_EQ(nodes.front(), a);
    ASSERT_EQ(nodes.back(), b);
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
      EXPECT_EQ(m.distance(nodes[i], nodes[i + 1]), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshShapes,
                         ::testing::Values(std::pair{2, 2}, std::pair{8, 8},
                                           std::pair{33, 16}, std::pair{1, 7},
                                           std::pair{16, 1}));

// ---------------------------------------------------------- analytical --

AnalyticalParams test_params() {
  AnalyticalParams p;
  p.per_hop_latency = Time::ns(50);
  p.channel_bw = mb_per_s(25.0);
  p.nic_latency = Time::ns(100);
  return p;
}

TEST(AnalyticalNet, UncontendedLatencyFormula) {
  AnalyticalMeshNet net(Mesh2D(8, 8), test_params());
  // 0 -> 3: 3 hops, 1000 bytes at 25 MB/s = 40 us serialization.
  const Time arr = net.transfer(0, 3, 1000, Time::zero());
  const Time expected = Time::ns(2 * 100 + 3 * 50) + Time::sec(1000 / 25e6);
  EXPECT_EQ(arr, expected);
}

TEST(AnalyticalNet, LocalDeliveryBypassesMesh) {
  AnalyticalMeshNet net(Mesh2D(4, 4), test_params());
  const Time arr = net.transfer(5, 5, 800, Time::zero());
  EXPECT_EQ(arr, Time::ns(100) + Time::sec(800 / 25e6));
}

TEST(AnalyticalNet, DisjointRoutesDoNotContend) {
  AnalyticalMeshNet net(Mesh2D(8, 2), test_params());
  const Time a = net.transfer(0, 1, 10000, Time::zero());
  // Row y=1: nodes 8..15. Route disjoint from 0->1.
  const Time b = net.transfer(8, 9, 10000, Time::zero());
  EXPECT_EQ(a, b);
  EXPECT_EQ(net.contention_max_us(), 0.0);
}

TEST(AnalyticalNet, SharedLinkSerializes) {
  AnalyticalMeshNet net(Mesh2D(8, 1), test_params());
  const Bytes big = 250'000;  // 10 ms at 25 MB/s
  const Time first = net.transfer(0, 7, big, Time::zero());
  const Time second = net.transfer(0, 7, big, Time::zero());
  // The second message waits for the first to clear the shared links.
  EXPECT_GT(second, first);
  EXPECT_GE((second - first).as_ms(), 9.9);
  EXPECT_GT(net.contention_max_us(), 0.0);
}

TEST(AnalyticalNet, ContentionClearsAfterIdle) {
  AnalyticalMeshNet net(Mesh2D(8, 1), test_params());
  net.transfer(0, 7, 250'000, Time::zero());
  // Departing long after the first message sees an idle network.
  const Time later = Time::sec(1);
  const Time arr = net.transfer(0, 7, 1000, later);
  const Time expected =
      later + Time::ns(2 * 100 + 7 * 50) + Time::sec(1000 / 25e6);
  EXPECT_EQ(arr, expected);
}

TEST(AnalyticalNet, ResetClearsState) {
  AnalyticalMeshNet net(Mesh2D(4, 4), test_params());
  net.transfer(0, 15, 1'000'000, Time::zero());
  net.reset();
  EXPECT_EQ(net.messages_routed(), 0u);
  const Time arr = net.transfer(0, 15, 1000, Time::zero());
  const Time expected =
      Time::ns(2 * 100 + 6 * 50) + Time::sec(1000 / 25e6);
  EXPECT_EQ(arr, expected);
}

TEST(AnalyticalNet, ContentionSumPastInt64StaysExact) {
  // Three messages of 4e18 ps each (4e12 bytes at 1 MB/s) queue behind
  // one another on one link: 0 + 4e18 + 8e18 ps of queueing passes
  // INT64_MAX (~9.22e18 ps). Every value here is exact in a double.
  AnalyticalParams p = test_params();
  p.channel_bw = mb_per_s(1.0);
  AnalyticalMeshNet net(Mesh2D(2, 1), p);
  for (int i = 0; i < 3; ++i)
    net.transfer(0, 1, 4'000'000'000'000, Time::zero());
  EXPECT_EQ(net.contention_max_us(), 8e12);
  EXPECT_EQ(net.contention_mean_us(), 4e12);
}

/// The analytical model restated over Mesh2D::xy_route, with its own
/// free-at table: the oracle for the model's arithmetic route walk.
class XyRouteOracle {
 public:
  XyRouteOracle(Mesh2D mesh, AnalyticalParams p)
      : mesh_(mesh),
        p_(p),
        free_at_(static_cast<std::size_t>(mesh.link_count())) {}

  Time transfer(NodeId src, NodeId dst, Bytes bytes, Time depart) {
    ++messages_;
    const Time ser = Time::sec(static_cast<double>(bytes) /
                               p_.channel_bw.bytes_per_sec());
    if (src == dst) return depart + p_.nic_latency + ser;
    const std::vector<LinkId> route = mesh_.xy_route(src, dst);
    Time start = depart;
    for (const LinkId l : route)
      start = std::max(start, free_at_[static_cast<std::size_t>(l)]);
    queued_ps_ += (start - depart).picoseconds();
    ++queued_count_;
    queued_max_ = std::max(queued_max_, start - depart);
    for (const LinkId l : route)
      free_at_[static_cast<std::size_t>(l)] = start + ser;
    return start + p_.nic_latency * 2 +
           p_.per_hop_latency * static_cast<std::uint64_t>(route.size()) +
           ser;
  }

  std::uint64_t messages() const { return messages_; }
  double mean_us() const {
    return queued_count_ ? static_cast<double>(queued_ps_) /
                               static_cast<double>(queued_count_) / 1e6
                         : 0.0;
  }
  double max_us() const { return queued_max_.as_us(); }

 private:
  Mesh2D mesh_;
  AnalyticalParams p_;
  std::vector<Time> free_at_;
  std::uint64_t messages_ = 0;
  std::int64_t queued_ps_ = 0;
  std::uint64_t queued_count_ = 0;
  Time queued_max_;
};

TEST(AnalyticalNet, TransferMatchesXyRouteOracle) {
  for (const auto& [w, h] : {std::pair{16, 33}, std::pair{128, 128}}) {
    const Mesh2D mesh(w, h);
    AnalyticalMeshNet net(mesh, test_params());
    XyRouteOracle ref(mesh, test_params());
    Rng rng(static_cast<std::uint64_t>(w * h));
    auto pick = [&rng](std::int32_t k) {
      return static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(k)));
    };
    auto check = [&](NodeId s, NodeId d, Bytes bytes, Time depart) {
      ASSERT_EQ(net.transfer(s, d, bytes, depart),
                ref.transfer(s, d, bytes, depart))
          << w << "x" << h << " " << s << "->" << d;
    };
    // Random pairs over a busy stretch, so routes queue behind each other.
    for (int i = 0; i < 4000; ++i)
      check(pick(mesh.node_count()), pick(mesh.node_count()),
            1 + rng.below(20'000), Time::us(pick(2000)));
    // Same-row, same-column and self sends, both directions.
    for (int i = 0; i < 500; ++i) {
      const NodeId s = pick(mesh.node_count());
      const Coord c = mesh.coord_of(s);
      const NodeId row = mesh.id_of({pick(w), c.y});
      const NodeId col = mesh.id_of({c.x, pick(h)});
      const Time t = Time::us(pick(2000));
      check(s, row, 1 + rng.below(20'000), t);
      check(row, s, 1 + rng.below(20'000), t);
      check(s, col, 1 + rng.below(20'000), t);
      check(col, s, 1 + rng.below(20'000), t);
      check(s, s, 1 + rng.below(20'000), t);
    }
    EXPECT_EQ(net.messages_routed(), ref.messages());
    EXPECT_EQ(net.contention_mean_us(), ref.mean_us());
    EXPECT_EQ(net.contention_max_us(), ref.max_us());
    EXPECT_GT(ref.max_us(), 0.0);
  }
}

TEST(CrossbarNet, FixedLatencyPlusSerialization) {
  CrossbarNet net(16, Time::us(1), mb_per_s(100));
  const Time arr = net.transfer(3, 12, 100'000, Time::ms(1));
  EXPECT_EQ(arr, Time::ms(1) + Time::us(1) + Time::ms(1));
}

// ---------------------------------------------------------------- flit --

FlitParams flit_params() {
  FlitParams p;
  p.flit_bytes = 16;
  p.input_buffer_flits = 8;
  p.channel_bw = mb_per_s(25.0);
  p.pipeline_cycles = 2;
  return p;
}

TEST(FlitNetwork, SingleMessageDelivers) {
  FlitNetwork net(Mesh2D(4, 4), flit_params());
  const auto i = net.inject(0, 15, 256, 0);
  net.run();
  EXPECT_TRUE(net.messages()[i].delivered);
  // 16 flits over 6 hops: latency at least hops + flits cycles.
  EXPECT_GE(net.latency_cycles(i), 16u);
}

TEST(FlitNetwork, LatencyGrowsWithDistance) {
  FlitNetwork net(Mesh2D(8, 1), flit_params());
  const auto near = net.inject(0, 1, 64, 0);
  const auto far = net.inject(0, 7, 64, 0);
  net.run();
  EXPECT_LT(net.latency_cycles(near), net.latency_cycles(far));
}

TEST(FlitNetwork, LatencyGrowsWithSize) {
  FlitNetwork net(Mesh2D(4, 1), flit_params());
  const auto small = net.inject(0, 2, 32, 0);
  const auto large = net.inject(3, 1, 512, 0);  // disjoint route
  net.run();
  EXPECT_LT(net.latency_cycles(small), net.latency_cycles(large));
}

TEST(FlitNetwork, AllMessagesDeliveredUnderLoad) {
  FlitNetwork net(Mesh2D(8, 8), flit_params());
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeId>(rng.below(64));
    auto d = static_cast<NodeId>(rng.below(64));
    if (d == s) d = (d + 1) % 64;
    net.inject(s, d, 64 + rng.below(256), rng.below(100));
  }
  net.run();
  for (const auto& m : net.messages()) EXPECT_TRUE(m.delivered);
}

TEST(FlitNetwork, DeterministicAcrossRuns) {
  auto run_once = [] {
    FlitNetwork net(Mesh2D(6, 6), flit_params());
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
      const auto s = static_cast<NodeId>(rng.below(36));
      auto d = static_cast<NodeId>(rng.below(36));
      if (d == s) d = (d + 1) % 36;
      net.inject(s, d, 128, rng.below(50));
    }
    net.run();
    std::vector<std::uint64_t> lats;
    for (std::size_t i = 0; i < net.messages().size(); ++i)
      lats.push_back(net.latency_cycles(i));
    return lats;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FlitNetwork, HotspotCongestsMoreThanUniform) {
  auto mean_latency = [](Pattern p) {
    const Mesh2D mesh(6, 6);
    TrafficConfig cfg;
    cfg.pattern = p;
    cfg.messages_per_node = 6;
    cfg.message_bytes = 256;
    cfg.mean_gap = sim::Time::us(30);
    cfg.seed = 3;
    FlitNetwork net(mesh, flit_params());
    const auto trace = generate_traffic(mesh, cfg);
    const double cyc_us = net.cycle_time().as_us();
    for (const auto& t : trace)
      net.inject(t.src, t.dst, t.bytes,
                 static_cast<std::uint64_t>(t.depart.as_us() / cyc_us));
    net.run();
    double sum = 0;
    for (std::size_t i = 0; i < net.messages().size(); ++i)
      sum += static_cast<double>(net.latency_cycles(i));
    return sum / static_cast<double>(net.messages().size());
  };
  EXPECT_GT(mean_latency(Pattern::HotSpot), mean_latency(Pattern::UniformRandom));
}

TEST(FlitNetwork, RejectsSelfMessage) {
  FlitNetwork net(Mesh2D(4, 4), flit_params());
  EXPECT_THROW(net.inject(3, 3, 64, 0), ContractError);
}

// ------------------------------------------------------------- traffic --

TEST(Traffic, DeterministicForSeed) {
  const Mesh2D m(8, 8);
  TrafficConfig cfg;
  cfg.seed = 12;
  const auto a = generate_traffic(m, cfg);
  const auto b = generate_traffic(m, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].depart, b[i].depart);
  }
}

TEST(Traffic, SortedByDeparture) {
  const Mesh2D m(8, 8);
  TrafficConfig cfg;
  const auto t = generate_traffic(m, cfg);
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end(),
                             [](const auto& x, const auto& y) {
                               return x.depart < y.depart;
                             }));
}

TEST(Traffic, TransposePattern) {
  const Mesh2D m(8, 8);
  TrafficConfig cfg;
  cfg.pattern = Pattern::Transpose;
  cfg.messages_per_node = 1;
  for (const auto& r : generate_traffic(m, cfg)) {
    const Coord s = m.coord_of(r.src), d = m.coord_of(r.dst);
    EXPECT_EQ(s.x, d.y);
    EXPECT_EQ(s.y, d.x);
  }
}

TEST(Traffic, HotspotConcentratesTraffic) {
  const Mesh2D m(8, 8);
  TrafficConfig cfg;
  cfg.pattern = Pattern::HotSpot;
  cfg.hotspot_fraction = 0.5;
  cfg.messages_per_node = 20;
  const NodeId hot = m.node_count() / 2;
  std::map<NodeId, int> dst_count;
  const auto trace = generate_traffic(m, cfg);
  for (const auto& r : trace) ++dst_count[r.dst];
  // The hot node receives far more than the uniform share.
  EXPECT_GT(dst_count[hot], static_cast<int>(trace.size()) / 64 * 10);
}

TEST(Traffic, NeighbourIsSingleHopExceptWrap) {
  const Mesh2D m(4, 4);
  TrafficConfig cfg;
  cfg.pattern = Pattern::NearestNeighbour;
  cfg.messages_per_node = 1;
  for (const auto& r : generate_traffic(m, cfg)) {
    const Coord s = m.coord_of(r.src);
    if (s.x < 3) {
      EXPECT_EQ(m.distance(r.src, r.dst), 1);
    }
  }
}

TEST(Traffic, NoSelfMessages) {
  const Mesh2D m(8, 8);
  for (Pattern p : {Pattern::UniformRandom, Pattern::Transpose,
                    Pattern::BitReversal, Pattern::HotSpot,
                    Pattern::NearestNeighbour}) {
    TrafficConfig cfg;
    cfg.pattern = p;
    for (const auto& r : generate_traffic(m, cfg)) EXPECT_NE(r.src, r.dst);
  }
}

TEST(Traffic, PatternNamesRoundTrip) {
  for (Pattern p : {Pattern::UniformRandom, Pattern::Transpose,
                    Pattern::BitReversal, Pattern::HotSpot,
                    Pattern::NearestNeighbour})
    EXPECT_EQ(parse_pattern(pattern_name(p)), p);
  EXPECT_THROW(parse_pattern("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace hpccsim::mesh

// ------------------------------------------------------------ routing --

namespace hpccsim::mesh {
namespace {

FlitParams wf_params() {
  FlitParams p;
  p.routing = RouteAlgo::WestFirst;
  return p;
}

TEST(WestFirst, DeliversAllUnderLoad) {
  FlitNetwork net(Mesh2D(8, 8), wf_params());
  Rng rng(21);
  for (int i = 0; i < 400; ++i) {
    const auto s = static_cast<NodeId>(rng.below(64));
    auto d = static_cast<NodeId>(rng.below(64));
    if (d == s) d = (d + 1) % 64;
    net.inject(s, d, 128 + rng.below(256), rng.below(80));
  }
  net.run();
  for (const auto& m : net.messages()) EXPECT_TRUE(m.delivered);
}

TEST(WestFirst, StaysMinimal) {
  // Latency in cycles is at least flits + hops for every message.
  FlitNetwork net(Mesh2D(6, 6), wf_params());
  Rng rng(23);
  std::vector<std::size_t> ids;
  for (int i = 0; i < 100; ++i) {
    const auto s = static_cast<NodeId>(rng.below(36));
    auto d = static_cast<NodeId>(rng.below(36));
    if (d == s) d = (d + 1) % 36;
    ids.push_back(net.inject(s, d, 64, 0));
  }
  net.run();
  for (const std::size_t i : ids) {
    const auto& m = net.messages()[i];
    const auto min_cycles = static_cast<std::uint64_t>(
        net.mesh().distance(m.src, m.dst) + 4 /*flits*/);
    EXPECT_GE(net.latency_cycles(i), min_cycles);
  }
}

TEST(WestFirst, DeterministicAcrossRuns) {
  auto run_once = [] {
    FlitNetwork net(Mesh2D(6, 6), wf_params());
    Rng rng(29);
    for (int i = 0; i < 150; ++i) {
      const auto s = static_cast<NodeId>(rng.below(36));
      auto d = static_cast<NodeId>(rng.below(36));
      if (d == s) d = (d + 1) % 36;
      net.inject(s, d, 96, rng.below(40));
    }
    net.run();
    std::vector<std::uint64_t> lat;
    for (std::size_t i = 0; i < net.messages().size(); ++i)
      lat.push_back(net.latency_cycles(i));
    return lat;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(WestFirst, AdaptivityHelpsHotspotTraffic) {
  auto mean_latency = [](RouteAlgo algo) {
    const Mesh2D mesh(8, 8);
    TrafficConfig cfg;
    cfg.pattern = Pattern::HotSpot;
    cfg.hotspot_fraction = 0.35;
    cfg.messages_per_node = 8;
    cfg.message_bytes = 256;
    cfg.mean_gap = sim::Time::us(40);
    cfg.seed = 31;
    FlitParams fp;
    fp.routing = algo;
    FlitNetwork net(mesh, fp);
    const double cyc_us = net.cycle_time().as_us();
    for (const auto& t : generate_traffic(mesh, cfg))
      net.inject(t.src, t.dst, t.bytes,
                 static_cast<std::uint64_t>(t.depart.as_us() / cyc_us));
    net.run();
    double sum = 0;
    for (std::size_t i = 0; i < net.messages().size(); ++i)
      sum += static_cast<double>(net.latency_cycles(i));
    return sum / static_cast<double>(net.messages().size());
  };
  // Adaptive routing spreads around the congested column; it should not
  // be (much) worse and is typically better.
  EXPECT_LT(mean_latency(RouteAlgo::WestFirst),
            mean_latency(RouteAlgo::XY) * 1.05);
}

TEST(WestFirst, AlgoNames) {
  EXPECT_STREQ(route_algo_name(RouteAlgo::XY), "xy");
  EXPECT_STREQ(route_algo_name(RouteAlgo::WestFirst), "west-first");
}

}  // namespace
}  // namespace hpccsim::mesh
