// Tests for the WAN module: link services, routing (widest / fastest
// path), store-and-forward transfer timing, and the consortium topology
// from the paper's figure.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include "util/rng.hpp"

#include "wan/consortium.hpp"
#include "wan/flows.hpp"
#include "wan/wan.hpp"

namespace hpccsim::wan {
namespace {

using sim::Time;

TEST(LinkTypes, BandwidthHierarchyMatchesPaper) {
  // The paper's figure lists: NSFnet T1 (1.5 mbps), NSFnet T3 (45 mbps),
  // ESnet T1 (1.5 mbps), CASA HIPPI/SONET (800 mbps), regional 56 kbps.
  EXPECT_NEAR(link_bandwidth(LinkType::T1).bits_per_sec() / 1e6, 1.5, 0.05);
  EXPECT_NEAR(link_bandwidth(LinkType::T3).bits_per_sec() / 1e6, 45.0, 0.3);
  EXPECT_NEAR(link_bandwidth(LinkType::HippiSonet).bits_per_sec() / 1e6,
              800.0, 0.1);
  EXPECT_NEAR(link_bandwidth(LinkType::Regional56k).bits_per_sec() / 1e3,
              56.0, 0.1);
  EXPECT_LT(link_bandwidth(LinkType::Regional56k).bytes_per_sec(),
            link_bandwidth(LinkType::T1).bytes_per_sec());
  EXPECT_LT(link_bandwidth(LinkType::T1).bytes_per_sec(),
            link_bandwidth(LinkType::T3).bytes_per_sec());
  EXPECT_LT(link_bandwidth(LinkType::T3).bytes_per_sec(),
            link_bandwidth(LinkType::HippiSonet).bytes_per_sec());
}

Wan line_network() {
  // a --T1-- b --T3-- c --56k-- d
  Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId c = w.add_site("c");
  const SiteId d = w.add_site("d");
  w.add_link(a, b, LinkType::T1, Time::ms(2));
  w.add_link(b, c, LinkType::T3, Time::ms(3));
  w.add_link(c, d, LinkType::Regional56k, Time::ms(4));
  return w;
}

TEST(Wan, SiteLookup) {
  const Wan w = line_network();
  EXPECT_EQ(w.site_by_name("c"), 2);
  EXPECT_EQ(w.site_name(0), "a");
  EXPECT_THROW(w.site_by_name("zz"), std::invalid_argument);
}

TEST(Wan, WidestPathPicksHighBandwidthRoute) {
  // Two routes a->c: direct 56k, or via b at T1+T3; widest wins.
  Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId c = w.add_site("c");
  w.add_link(a, c, LinkType::Regional56k, Time::ms(1));
  w.add_link(a, b, LinkType::T1, Time::ms(1));
  w.add_link(b, c, LinkType::T3, Time::ms(1));
  const auto path = w.widest_path(a, c);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<SiteId>{a, b, c}));
}

TEST(Wan, WidestPathBreaksTiesByHops) {
  // Both routes are all-T1; the 1-hop route must win.
  Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId c = w.add_site("c");
  w.add_link(a, c, LinkType::T1, Time::ms(9));
  w.add_link(a, b, LinkType::T1, Time::ms(1));
  w.add_link(b, c, LinkType::T1, Time::ms(1));
  const auto path = w.widest_path(a, c);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);
}

TEST(Wan, UnreachableReturnsNullopt) {
  Wan w;
  const SiteId a = w.add_site("a");
  w.add_site("island");
  EXPECT_FALSE(w.widest_path(a, 1).has_value());
  EXPECT_FALSE(w.transfer(a, 1, 1000).has_value());
}

TEST(Wan, TransferTimeSingleLink) {
  Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  w.add_link(a, b, LinkType::T1, Time::ms(5));
  // 1 MB over T1 (193 kB/s): ~5.18 s + 5 ms propagation.
  const auto r = w.transfer(a, b, 1'000'000);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->duration.as_sec(), 1'000'000 / (1.544e6 / 8) + 0.005, 0.05);
  EXPECT_NEAR(r->bottleneck.bits_per_sec() / 1e6, 1.544, 0.01);
}

TEST(Wan, MultiHopPipelinesAtBottleneck) {
  const Wan w = line_network();
  const Bytes mb = 1'000'000;
  const auto r = w.transfer(0, 3, mb);
  ASSERT_TRUE(r.has_value());
  // Bottleneck is the 56k tail: ~143 s for 1 MB; the T1/T3 segments add
  // only the first-packet delay.
  EXPECT_NEAR(r->duration.as_sec(), static_cast<double>(mb) / (56e3 / 8.0),
              5.0);
  EXPECT_EQ(r->path.size(), 4u);
}

TEST(Wan, SelfTransferIsFree) {
  const Wan w = line_network();
  const auto r = w.transfer(1, 1, 12345);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->duration, Time::zero());
}

TEST(Wan, ReachabilityOnConnectedGraph) {
  const Wan w = line_network();
  EXPECT_EQ(w.reachable_from(0).size(), 4u);
}

// ----------------------------------------------------------- consortium --

TEST(Consortium, AllSitesPresent) {
  const Wan w = consortium_network();
  EXPECT_EQ(w.site_count(),
            static_cast<std::int32_t>(consortium_sites().size()));
  EXPECT_GE(w.site_count(), 14);  // "over 14 ... organizations"
}

TEST(Consortium, FullyConnected) {
  const Wan w = consortium_network();
  const SiteId delta = w.site_by_name("Caltech-Delta");
  EXPECT_EQ(w.reachable_from(delta).size(),
            static_cast<std::size_t>(w.site_count()));
}

TEST(Consortium, CasaPartnersGetHippiBandwidth) {
  const Wan w = consortium_network();
  const SiteId delta = w.site_by_name("Caltech-Delta");
  for (const char* partner : {"JPL", "Los-Alamos", "SDSC"}) {
    const auto r = w.transfer(delta, w.site_by_name(partner), 100 * 1000 * 1000);
    ASSERT_TRUE(r.has_value()) << partner;
    EXPECT_NEAR(r->bottleneck.bits_per_sec() / 1e6, 800.0, 1.0) << partner;
  }
}

TEST(Consortium, RegionalTailIsTheLongPole) {
  const Wan w = consortium_network();
  const SiteId delta = w.site_by_name("Caltech-Delta");
  const Bytes dataset = 10 * 1000 * 1000;  // 10 MB results file
  const auto to_jpl = w.transfer(delta, w.site_by_name("JPL"), dataset);
  const auto to_del = w.transfer(delta, w.site_by_name("Delaware"), dataset);
  ASSERT_TRUE(to_jpl && to_del);
  // HIPPI vs 56 kbps: more than two orders of magnitude apart.
  EXPECT_GT(to_del->duration.as_sec() / to_jpl->duration.as_sec(), 100.0);
}

TEST(Consortium, BackboneRoutesUseT3) {
  const Wan w = consortium_network();
  const auto r = w.transfer(w.site_by_name("Caltech-Delta"),
                            w.site_by_name("CRPC-Rice"), 1000 * 1000);
  ASSERT_TRUE(r.has_value());
  // Rice hangs off the backbone at T1; bottleneck is T1, not 56k.
  EXPECT_NEAR(r->bottleneck.bits_per_sec() / 1e6, 1.544, 0.01);
  // Route crosses the T3 backbone nodes.
  const auto names = [&] {
    std::vector<std::string> v;
    for (const SiteId s : r->path) v.push_back(w.site_name(s));
    return v;
  }();
  EXPECT_NE(std::find(names.begin(), names.end(), "NSFnet-Central"),
            names.end());
}

}  // namespace
}  // namespace hpccsim::wan

// ---------------------------------------------------------- flows --

namespace hpccsim::wan {
namespace {

using sim::Time;

Wan two_link_line() {
  Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId c = w.add_site("c");
  w.add_link(a, b, LinkType::T3, Time::ms(1));
  w.add_link(b, c, LinkType::T3, Time::ms(1));
  return w;
}

TEST(Flows, SingleFlowRunsAtBottleneck) {
  const Wan w = two_link_line();
  FlowSimulator sim(w);
  const Bytes mb10 = 10'000'000;
  sim.add_flow(0, 2, mb10);
  sim.run();
  const Flow& f = sim.flows()[0];
  EXPECT_TRUE(f.done);
  // 10 MB at T3 (5.592 MB/s): ~1.79 s.
  EXPECT_NEAR(f.finish.as_sec(), 10e6 / (44.736e6 / 8), 0.01);
  EXPECT_NEAR(f.slowdown, 1.0, 1e-6);
}

TEST(Flows, TwoFlowsShareALinkEqually) {
  const Wan w = two_link_line();
  FlowSimulator sim(w);
  sim.add_flow(0, 2, 10'000'000);
  sim.add_flow(0, 2, 10'000'000);
  sim.run();
  // Both cross both links; each gets half the T3; both finish together
  // at 2x the isolated duration.
  EXPECT_NEAR(sim.flows()[0].slowdown, 2.0, 0.01);
  EXPECT_NEAR(sim.flows()[1].slowdown, 2.0, 0.01);
  EXPECT_EQ(sim.flows()[0].finish, sim.flows()[1].finish);
}

TEST(Flows, DisjointFlowsDoNotInterfere) {
  Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId c = w.add_site("c");
  const SiteId d = w.add_site("d");
  w.add_link(a, b, LinkType::T1, Time::ms(1));
  w.add_link(c, d, LinkType::T1, Time::ms(1));
  FlowSimulator sim(w);
  sim.add_flow(a, b, 1'000'000);
  sim.add_flow(c, d, 1'000'000);
  sim.run();
  EXPECT_NEAR(sim.flows()[0].slowdown, 1.0, 1e-6);
  EXPECT_NEAR(sim.flows()[1].slowdown, 1.0, 1e-6);
}

TEST(Flows, ShortFlowFinishesThenLongSpeedsUp) {
  const Wan w = two_link_line();
  FlowSimulator sim(w);
  const double t3 = 44.736e6 / 8;  // bytes per second
  sim.add_flow(0, 2, static_cast<Bytes>(t3 * 2));  // 2 s alone
  sim.add_flow(0, 2, static_cast<Bytes>(t3 * 1));  // 1 s alone
  sim.run();
  // Shared until the short one finishes at t=2 (each at half rate);
  // the long one then runs alone: total 2 + 1 = 3 s.
  EXPECT_NEAR(sim.flows()[1].finish.as_sec(), 2.0, 0.01);
  EXPECT_NEAR(sim.flows()[0].finish.as_sec(), 3.0, 0.01);
}

TEST(Flows, StaggeredStartsRespected) {
  const Wan w = two_link_line();
  FlowSimulator sim(w);
  const double t3 = 44.736e6 / 8;
  sim.add_flow(0, 2, static_cast<Bytes>(t3 * 1), Time::sec(0));
  sim.add_flow(0, 2, static_cast<Bytes>(t3 * 1), Time::sec(10));
  sim.run();
  // No overlap at all: both run at full rate.
  EXPECT_NEAR(sim.flows()[0].finish.as_sec(), 1.0, 0.01);
  EXPECT_NEAR(sim.flows()[1].finish.as_sec(), 11.0, 0.01);
  EXPECT_NEAR(sim.flows()[1].slowdown, 1.0, 0.01);
}

TEST(Flows, FairRatesWaterFilling) {
  // One T1 tail behind a T3: a flow through both and a flow only on the
  // T3 — the T1 flow is capped at T1; the T3 flow gets the rest.
  Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId c = w.add_site("c");
  w.add_link(a, b, LinkType::T3, Time::ms(1));
  w.add_link(b, c, LinkType::T1, Time::ms(1));
  FlowSimulator sim(w);
  const auto f1 = sim.add_flow(a, c, 1'000'000);  // crosses T3 + T1
  const auto f2 = sim.add_flow(a, b, 1'000'000);  // T3 only
  const auto rates = sim.fair_rates({f1, f2});
  const double t1 = 1.544e6 / 8, t3 = 44.736e6 / 8;
  EXPECT_NEAR(rates[f1], t1, 1.0);
  EXPECT_NEAR(rates[f2], t3 - t1, 1.0);
}

TEST(Flows, ConsortiumRushHour) {
  // Everyone pulls from the Delta at once; HIPPI partners are immune,
  // the T1 crowd shares the backbone attachments.
  const Wan w = consortium_network();
  FlowSimulator sim(w);
  const SiteId delta = w.site_by_name("Caltech-Delta");
  const Bytes mb = 20'000'000;
  const auto jpl = sim.add_flow(delta, w.site_by_name("JPL"), mb);
  const auto rice = sim.add_flow(delta, w.site_by_name("CRPC-Rice"), mb);
  const auto purdue = sim.add_flow(delta, w.site_by_name("Purdue"), mb);
  const auto mich = sim.add_flow(delta, w.site_by_name("Michigan"), mb);
  sim.run();
  EXPECT_NEAR(sim.flows()[jpl].slowdown, 1.0, 0.01);  // own HIPPI channel
  // The three T1 tails have distinct last hops, so each is bottlenecked
  // by its own T1, not by sharing: slowdowns stay near 1 as long as the
  // shared T3 has headroom (3 x T1 << T3).
  EXPECT_NEAR(sim.flows()[rice].slowdown, 1.0, 0.05);
  EXPECT_NEAR(sim.flows()[purdue].slowdown, 1.0, 0.05);
  EXPECT_NEAR(sim.flows()[mich].slowdown, 1.0, 0.05);
}

TEST(Flows, RejectsBadFlows) {
  Wan w;
  w.add_site("a");
  w.add_site("island");
  FlowSimulator sim(w);
  EXPECT_THROW(sim.add_flow(0, 1, 100), std::invalid_argument);
  EXPECT_THROW(sim.add_flow(0, 0, 100), ContractError);
}

TEST(Flows, SingleShotLifecycle) {
  // The simulator is single-shot: once run() has consumed the flow set,
  // late add_flow() and a second run() both violate the contract.
  const Wan w = two_link_line();
  FlowSimulator sim(w);
  sim.add_flow(0, 2, 1'000'000);
  sim.run();
  EXPECT_THROW(sim.add_flow(0, 2, 1'000'000), ContractError);
  EXPECT_THROW(sim.run(), ContractError);
  EXPECT_THROW(sim.run_reference(), ContractError);
}

TEST(Flows, FairRatesGoldenValuesAndBottleneckOrder) {
  // T3 then T1 in registration order: the T1 (index 1) offers the
  // smaller share and must be frozen first; the T3 then gives its
  // residual to the remaining flow.
  Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId c = w.add_site("c");
  w.add_link(a, b, LinkType::T3, Time::ms(1));  // link 0
  w.add_link(b, c, LinkType::T1, Time::ms(1));  // link 1
  FlowSimulator sim(w);
  const auto f1 = sim.add_flow(a, c, 1'000'000);  // T3 + T1
  const auto f2 = sim.add_flow(a, b, 1'000'000);  // T3 only
  std::vector<std::size_t> order;
  const auto rates = sim.fair_rates({f1, f2}, &order);
  const double t1 = link_bandwidth(LinkType::T1).bytes_per_sec();
  const double t3 = link_bandwidth(LinkType::T3).bytes_per_sec();
  // Golden values: exact doubles, not approximations — the pinned
  // evaluation order makes these bit-stable.
  EXPECT_EQ(rates[f1], t1);
  EXPECT_EQ(rates[f2], t3 - t1);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // T1 saturates first
  EXPECT_EQ(order[1], 0u);
}

TEST(Flows, FairRatesTieBreaksOnLowestLinkIndex) {
  // Two flows crossing both T3 links of the line: both links offer the
  // identical share, so the pinned tie-break freezes link 0. Everyone
  // is frozen after that round, so link 1 never appears in the order.
  const Wan w = two_link_line();
  FlowSimulator sim(w);
  const auto f1 = sim.add_flow(0, 2, 1'000'000);
  const auto f2 = sim.add_flow(0, 2, 1'000'000);
  std::vector<std::size_t> order;
  const auto rates = sim.fair_rates({f1, f2}, &order);
  const double t3 = link_bandwidth(LinkType::T3).bytes_per_sec();
  EXPECT_EQ(rates[f1], t3 / 2.0);
  EXPECT_EQ(rates[f2], t3 / 2.0);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 0u);
}

}  // namespace
}  // namespace hpccsim::wan

// ------------------------------------------- routing property checks --

namespace hpccsim::wan {
namespace {

// Brute-force all simple paths (tiny graphs) and check widest_path
// returns a maximum-bottleneck route.
double brute_force_widest(const Wan& w, SiteId src, SiteId dst) {
  double best = -1.0;
  std::vector<bool> visited(static_cast<std::size_t>(w.site_count()), false);
  std::vector<SiteId> stack{src};
  // DFS over simple paths carrying the current bottleneck.
  struct Frame {
    SiteId at;
    double bottleneck;
  };
  std::vector<Frame> dfs{{src, 1e18}};
  std::vector<std::vector<std::pair<SiteId, double>>> adj(
      static_cast<std::size_t>(w.site_count()));
  for (const auto& l : w.links()) {
    const double bw = link_bandwidth(l.type).bytes_per_sec();
    adj[static_cast<std::size_t>(l.a)].emplace_back(l.b, bw);
    adj[static_cast<std::size_t>(l.b)].emplace_back(l.a, bw);
  }
  // Recursive lambda via explicit stack of (frame, visited-set) is
  // heavy; use plain recursion through std::function (graphs are tiny).
  std::vector<bool> seen(static_cast<std::size_t>(w.site_count()), false);
  std::function<void(SiteId, double)> go = [&](SiteId at, double bn) {
    if (at == dst) {
      best = std::max(best, bn);
      return;
    }
    seen[static_cast<std::size_t>(at)] = true;
    for (const auto& [to, bw] : adj[static_cast<std::size_t>(at)])
      if (!seen[static_cast<std::size_t>(to)]) go(to, std::min(bn, bw));
    seen[static_cast<std::size_t>(at)] = false;
  };
  go(src, 1e18);
  return best;
}

TEST(WanProperty, WidestPathMatchesBruteForceOnRandomGraphs) {
  hpccsim::Rng rng(555);
  const LinkType kinds[] = {LinkType::Regional56k, LinkType::T1,
                            LinkType::T3, LinkType::Ethernet10,
                            LinkType::FDDI, LinkType::HippiSonet};
  for (int trial = 0; trial < 30; ++trial) {
    Wan w;
    const int ns = 5 + static_cast<int>(rng.below(4));
    for (int i = 0; i < ns; ++i) w.add_site("s" + std::to_string(i));
    const int links = ns + static_cast<int>(rng.below(6));
    for (int l = 0; l < links; ++l) {
      const auto a = static_cast<SiteId>(rng.below(ns));
      auto b = static_cast<SiteId>(rng.below(ns));
      if (b == a) b = (b + 1) % ns;
      w.add_link(a, b, kinds[rng.below(6)], sim::Time::ms(1));
    }
    for (int q = 0; q < 5; ++q) {
      const auto s = static_cast<SiteId>(rng.below(ns));
      auto d = static_cast<SiteId>(rng.below(ns));
      if (d == s) d = (d + 1) % ns;
      const double expect = brute_force_widest(w, s, d);
      const auto path = w.widest_path(s, d);
      if (expect < 0) {
        EXPECT_FALSE(path.has_value());
        continue;
      }
      ASSERT_TRUE(path.has_value());
      // Random graphs may have parallel links between a site pair; the
      // achievable bottleneck of the returned site-path takes the best
      // parallel link on each hop.
      double got = 1e18;
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        double hop_best = 0.0;
        for (const auto& l : w.links()) {
          const bool joins = (l.a == (*path)[i] && l.b == (*path)[i + 1]) ||
                             (l.b == (*path)[i] && l.a == (*path)[i + 1]);
          if (joins)
            hop_best = std::max(hop_best,
                                link_bandwidth(l.type).bytes_per_sec());
        }
        got = std::min(got, hop_best);
      }
      EXPECT_NEAR(got, expect, expect * 1e-12) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace hpccsim::wan

// -------------------------------------- fluid-model property checks --

namespace hpccsim::wan {
namespace {

using sim::Time;

// A lone fluid flow sees no contention: its duration must equal the
// idle-network stream time bytes / bottleneck (the fluid model carries
// no propagation or packetization terms — those belong to the packet
// model, cross-checked below).
TEST(FlowProperty, SingleFlowMatchesIdleBottleneckTime) {
  const Wan w = consortium_network();
  const SiteId delta = w.site_by_name("Caltech-Delta");
  hpccsim::Rng rng(1992);
  for (int trial = 0; trial < 10; ++trial) {
    auto dst = static_cast<SiteId>(rng.below(w.site_count()));
    if (dst == delta) dst = (dst + 1) % w.site_count();
    const Bytes bytes = 1'000'000 + rng.below(50'000'000);
    const auto packet = w.transfer(delta, dst, bytes);
    ASSERT_TRUE(packet.has_value());
    FlowSimulator sim(w);
    const auto f = sim.add_flow(delta, dst, bytes);
    sim.run();
    const double idle =
        static_cast<double>(bytes) / packet->bottleneck.bytes_per_sec();
    EXPECT_NEAR(sim.flows()[f].finish.as_sec(), idle, idle * 1e-6 + 1e-6);
    EXPECT_NEAR(sim.flows()[f].slowdown, 1.0, 1e-9);
  }
}

// Under a simultaneous fan-out from the Delta, transfer times must
// respect the paper's service hierarchy: HIPPI partners finish far
// ahead of T3 backbone sites, which beat the T1 tails, which beat the
// lone 56 kbps regional site.
TEST(FlowProperty, ContentionPreservesServiceHierarchy) {
  const Wan w = consortium_network();
  FlowSimulator sim(w);
  const SiteId delta = w.site_by_name("Caltech-Delta");
  const Bytes mb = 20'000'000;
  const auto hippi = sim.add_flow(delta, w.site_by_name("JPL"), mb);
  const auto t3 = sim.add_flow(delta, w.site_by_name("NSFnet-West"), mb);
  const auto t1 = sim.add_flow(delta, w.site_by_name("CRPC-Rice"), mb);
  const auto slow = sim.add_flow(delta, w.site_by_name("Delaware"), mb);
  sim.run();
  const auto secs = [&](std::size_t f) {
    return sim.flows()[f].finish.as_sec();
  };
  EXPECT_GT(secs(t3) / secs(hippi), 5.0);
  EXPECT_GT(secs(t1) / secs(t3), 5.0);
  EXPECT_GT(secs(slow) / secs(t1), 5.0);
}

// The incremental engine against the retained full-recompute oracle:
// randomized flow sets on the consortium topology must produce the
// same finish times (up to the engine's picosecond event rounding).
TEST(FlowProperty, EngineMatchesReferenceOnRandomScenarios) {
  const Wan w = consortium_network();
  const SiteId delta = w.site_by_name("Caltech-Delta");
  hpccsim::Rng rng(92);
  for (int trial = 0; trial < 12; ++trial) {
    FlowSimulator engine_sim(w);
    FlowSimulator reference_sim(w);
    const int n = 3 + static_cast<int>(rng.below(12));
    for (int i = 0; i < n; ++i) {
      // Mix hub fan-out with random site pairs; skip unroutable pairs.
      SiteId src = delta;
      auto dst = static_cast<SiteId>(rng.below(w.site_count()));
      if (rng.below(3) == 0) src = static_cast<SiteId>(rng.below(w.site_count()));
      if (src == dst) dst = (dst + 1) % w.site_count();
      if (!w.widest_path(src, dst).has_value()) continue;
      const Bytes bytes = 500'000 + rng.below(30'000'000);
      const auto start = Time::ms(static_cast<std::int64_t>(rng.below(5000)));
      engine_sim.add_flow(src, dst, bytes, start);
      reference_sim.add_flow(src, dst, bytes, start);
    }
    engine_sim.run();
    reference_sim.run_reference();
    ASSERT_EQ(engine_sim.flows().size(), reference_sim.flows().size());
    for (std::size_t f = 0; f < engine_sim.flows().size(); ++f) {
      const Flow& got = engine_sim.flows()[f];
      const Flow& want = reference_sim.flows()[f];
      ASSERT_TRUE(got.done) << "trial " << trial << " flow " << f;
      ASSERT_TRUE(want.done) << "trial " << trial << " flow " << f;
      EXPECT_NEAR(got.finish.as_sec(), want.finish.as_sec(),
                  1e-3 + want.finish.as_sec() * 1e-9)
          << "trial " << trial << " flow " << f;
      EXPECT_NEAR(got.slowdown, want.slowdown, 1e-3)
          << "trial " << trial << " flow " << f;
    }
  }
}

}  // namespace
}  // namespace hpccsim::wan
