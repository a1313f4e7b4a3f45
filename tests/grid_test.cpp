// Tests for the grid data-federation subsystem: topology construction,
// the seeded diurnal workload, replica placement policies, the
// incremental flow engine's bookkeeping, and end-to-end GridSimulator
// invariants (conservation + determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "grid/catalog.hpp"
#include "grid/federation.hpp"
#include "grid/grid_sim.hpp"
#include "grid/workload.hpp"
#include "obs/counters.hpp"
#include "util/rng.hpp"
#include "wan/flow_engine.hpp"

namespace hpccsim::grid {
namespace {

using sim::Time;

FederationConfig small_config() {
  FederationConfig fc;
  fc.regions = 2;
  fc.leaves_per_region = 3;
  return fc;
}

TEST(Federation, TopologyShape) {
  const Federation fed(small_config());
  EXPECT_EQ(fed.regions(), 2);
  EXPECT_EQ(fed.archives().size(), 2u);
  EXPECT_EQ(fed.leaves().size(), 6u);
  // Sites: per region one hub + one archive + three leaves.
  EXPECT_EQ(fed.wan().site_count(), 2 * (1 + 1 + 3));
  // Every leaf can reach every other site through the backbone.
  const SiteId leaf = fed.leaves().front().site;
  EXPECT_EQ(fed.wan().reachable_from(leaf).size(),
            static_cast<std::size_t>(fed.wan().site_count()));
}

TEST(Federation, SiteMetadata) {
  const Federation fed(small_config());
  for (const GridSite& a : fed.archives()) {
    EXPECT_TRUE(a.is_archive);
    ASSERT_NE(fed.site_info(a.site), nullptr);
    // Archives sit on HIPPI access and are effectively unbounded.
    EXPECT_NEAR(a.access_bps, 1e8, 1e7);
    EXPECT_GT(a.storage_capacity, Bytes{1} << 40);
  }
  std::int32_t t1 = 0, t3 = 0;
  for (const GridSite& l : fed.leaves()) {
    EXPECT_FALSE(l.is_archive);
    EXPECT_EQ(l.storage_capacity, small_config().leaf_storage);
    if (l.access_bps < 1e6) ++t1; else ++t3;
  }
  // Every third leaf rides a T1; the rest get T3 access.
  EXPECT_EQ(t1, 2);
  EXPECT_EQ(t3, 4);
  // Backbone hubs carry no grid metadata.
  bool saw_hub = false;
  for (SiteId s = 0; s < fed.wan().site_count(); ++s)
    if (fed.site_info(s) == nullptr) saw_hub = true;
  EXPECT_TRUE(saw_hub);
}

TEST(Federation, ArchiveOfRegion) {
  const Federation fed(small_config());
  for (std::int32_t r = 0; r < fed.regions(); ++r) {
    const GridSite* info = fed.site_info(fed.archive_of(r));
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->is_archive);
    EXPECT_EQ(info->region, r);
  }
}

WorkloadConfig small_workload() {
  WorkloadConfig wc;
  wc.days = 0.02;
  wc.requests_per_day = 50000.0;
  wc.dataset_count = 200;
  return wc;
}

TEST(Workload, SameSeedSameStream) {
  const Federation fed(small_config());
  WorkloadGenerator a(small_workload(), fed);
  WorkloadGenerator b(small_workload(), fed);
  int n = 0;
  while (true) {
    const auto qa = a.next();
    const auto qb = b.next();
    ASSERT_EQ(qa.has_value(), qb.has_value());
    if (!qa) break;
    EXPECT_EQ(qa->at, qb->at);
    EXPECT_EQ(qa->dst, qb->dst);
    EXPECT_EQ(qa->dataset, qb->dataset);
    ++n;
  }
  EXPECT_GT(n, 100);  // the stream actually produced requests
  // Same config for the static draws too.
  for (DatasetId d = 0; d < a.dataset_count(); ++d) {
    EXPECT_EQ(a.dataset_bytes(d), b.dataset_bytes(d));
    EXPECT_EQ(a.initial_region(d), b.initial_region(d));
  }
}

TEST(Workload, DifferentSeedDifferentStream) {
  const Federation fed(small_config());
  auto wc = small_workload();
  WorkloadGenerator a(wc, fed);
  wc.seed = 7;
  WorkloadGenerator b(wc, fed);
  const auto qa = a.next();
  const auto qb = b.next();
  ASSERT_TRUE(qa && qb);
  EXPECT_NE(qa->at, qb->at);
}

TEST(Workload, DiurnalRushShape) {
  const Federation fed(small_config());
  WorkloadConfig wc = small_workload();
  wc.rush_hour = 14.0;
  wc.rush_amplitude = 1.2;
  WorkloadGenerator wl(wc, fed);
  const double base = wc.requests_per_day / 86400.0;
  const double peak = wl.rate_at(14.0 * 3600.0);
  const double trough = wl.rate_at(2.0 * 3600.0);
  EXPECT_NEAR(peak, base * (1.0 + wc.rush_amplitude), base * 0.01);
  EXPECT_NEAR(trough, base, base * 0.01);
  // The rush repeats daily: same clock time tomorrow, same rate.
  EXPECT_NEAR(wl.rate_at(14.0 * 3600.0 + 86400.0), peak, peak * 1e-9);
}

TEST(Workload, RequestsAreOrderedAndInHorizon) {
  const Federation fed(small_config());
  const auto wc = small_workload();
  WorkloadGenerator wl(wc, fed);
  Time last = Time::zero();
  const double horizon_s = wc.days * 86400.0;
  while (const auto q = wl.next()) {
    EXPECT_GE(q->at, last);
    EXPECT_LE(q->at.as_sec(), horizon_s);
    EXPECT_GE(q->dataset, 0);
    EXPECT_LT(q->dataset, wc.dataset_count);
    // Destinations are always leaves.
    const GridSite* info = fed.site_info(q->dst);
    ASSERT_NE(info, nullptr);
    EXPECT_FALSE(info->is_archive);
    last = q->at;
  }
}

TEST(Workload, DatasetSizesWithinClamp) {
  const Federation fed(small_config());
  WorkloadGenerator wl(small_workload(), fed);
  for (DatasetId d = 0; d < wl.dataset_count(); ++d) {
    EXPECT_GE(wl.dataset_bytes(d), 4096);
    EXPECT_LE(wl.dataset_bytes(d), Bytes{1} << 40);
    EXPECT_GE(wl.initial_region(d), 0);
    EXPECT_LT(wl.initial_region(d), fed.regions());
  }
}

TEST(Catalog, PlacementNames) {
  EXPECT_STREQ(placement_name(Placement::WidestPath), "widest");
  EXPECT_STREQ(placement_name(Placement::LeastLoaded), "least-loaded");
  EXPECT_EQ(placement_from("widest"), Placement::WidestPath);
  EXPECT_EQ(placement_from("least-loaded"), Placement::LeastLoaded);
  EXPECT_THROW(placement_from("round-robin"), std::invalid_argument);
}

TEST(Catalog, WidestPathPrefersTheFatterPipe) {
  // dst reaches replica a over T3 but replica b only over T1: widest
  // must pick a even when b is idle and a is heavily loaded.
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId dst = w.add_site("dst");
  w.add_link(a, dst, wan::LinkType::T3, Time::ms(1));
  w.add_link(b, dst, wan::LinkType::T1, Time::ms(1));
  wan::RouteTable routes(w);
  ReplicaCatalog cat(w.site_count());
  const DatasetId d = cat.add_dataset(1'000'000, a);
  cat.add_replica(d, b);
  std::vector<double> backlog(3, 0.0);
  backlog[static_cast<std::size_t>(a)] = 1e9;  // widest ignores load
  EXPECT_EQ(cat.select_source(d, dst, Placement::WidestPath, routes, backlog),
            a);
  EXPECT_EQ(cat.select_source(d, dst, Placement::LeastLoaded, routes, backlog),
            b);
}

TEST(Catalog, TieBreaksOnLowestSiteId) {
  // Two equally wide, equally loaded replicas: the lower id wins.
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId dst = w.add_site("dst");
  w.add_link(a, dst, wan::LinkType::T3, Time::ms(1));
  w.add_link(b, dst, wan::LinkType::T3, Time::ms(1));
  wan::RouteTable routes(w);
  ReplicaCatalog cat(w.site_count());
  const DatasetId d = cat.add_dataset(1'000'000, b);  // registered b first
  cat.add_replica(d, a);
  const std::vector<double> backlog(3, 0.0);
  EXPECT_EQ(cat.select_source(d, dst, Placement::WidestPath, routes, backlog),
            a);
  EXPECT_EQ(cat.select_source(d, dst, Placement::LeastLoaded, routes, backlog),
            a);
}

TEST(Catalog, ExcludesDestinationAndUnroutable) {
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId dst = w.add_site("dst");
  w.add_site("island");
  w.add_link(a, dst, wan::LinkType::T3, Time::ms(1));
  wan::RouteTable routes(w);
  ReplicaCatalog cat(w.site_count());
  const DatasetId d = cat.add_dataset(1'000'000, dst);
  const std::vector<double> backlog(3, 0.0);
  // Only replica is the destination itself: nothing to pull from.
  EXPECT_EQ(cat.select_source(d, dst, Placement::WidestPath, routes, backlog),
            -1);
  const DatasetId d2 = cat.add_dataset(1'000'000, 2);  // on the island
  EXPECT_EQ(cat.select_source(d2, dst, Placement::WidestPath, routes, backlog),
            -1);
  cat.add_replica(d2, a);
  EXPECT_EQ(cat.select_source(d2, dst, Placement::WidestPath, routes, backlog),
            a);
}

TEST(Catalog, AddReplicaIsIdempotent) {
  ReplicaCatalog cat(3);
  const DatasetId d = cat.add_dataset(42, 0);
  cat.add_replica(d, 1);
  cat.add_replica(d, 1);
  EXPECT_EQ(cat.replica_count(d), 2);
  EXPECT_TRUE(cat.has_replica(d, 0));
  EXPECT_TRUE(cat.has_replica(d, 1));
  EXPECT_FALSE(cat.has_replica(d, 2));
}

TEST(Catalog, RowsSpanWordsAndTieBreakAcrossThem) {
  // 130 sites, each on its own link to the hub (site 129), so a row is
  // three words and sites 0, 63, 64 and 100 sit in words 0, 0, 1 and 1.
  wan::Wan w;
  for (int i = 0; i < 130; ++i) w.add_site("s" + std::to_string(i));
  const SiteId hub = 129;
  for (SiteId s = 0; s < hub; ++s)
    w.add_link(s, hub, s == 100 ? wan::LinkType::HippiSonet
                                : wan::LinkType::T3,
               Time::ms(1));
  wan::RouteTable routes(w);
  ReplicaCatalog cat(w.site_count());
  std::vector<double> backlog(130, 0.0);

  const DatasetId all = cat.add_dataset(1'000'000, 100);
  for (const SiteId s : {64, 63, 0}) cat.add_replica(all, s);
  cat.add_replica(all, 64);  // idempotent across words too
  EXPECT_EQ(cat.replica_count(all), 4);
  for (const SiteId s : {0, 63, 64, 100})
    EXPECT_TRUE(cat.has_replica(all, s)) << s;
  for (const SiteId s : {1, 62, 65, 99, 101, 128, 129})
    EXPECT_FALSE(cat.has_replica(all, s)) << s;
  // Site 100 alone has the HIPPI pipe; equal backlogs tie on site 0.
  EXPECT_EQ(cat.select_source(all, hub, Placement::WidestPath, routes,
                              backlog),
            100);
  EXPECT_EQ(cat.select_source(all, hub, Placement::LeastLoaded, routes,
                              backlog),
            0);
  // Least loaded among the word-1 replicas: the lower id, 64, wins.
  backlog[0] = backlog[63] = 5.0;
  backlog[64] = backlog[100] = 1.0;
  EXPECT_EQ(cat.select_source(all, hub, Placement::LeastLoaded, routes,
                              backlog),
            64);
  // The destination is never its own source.
  EXPECT_EQ(cat.select_source(all, 64, Placement::LeastLoaded, routes,
                              backlog),
            100);

  // Equal T3 pipes straddling the word boundary: 63 beats 64.
  const DatasetId edge = cat.add_dataset(1'000'000, 64);
  cat.add_replica(edge, 63);
  EXPECT_EQ(cat.select_source(edge, hub, Placement::WidestPath, routes,
                              backlog),
            63);
  // Within word 1, registered high id first: 64 beats 128.
  const DatasetId upper = cat.add_dataset(1'000'000, 128);
  cat.add_replica(upper, 64);
  EXPECT_EQ(cat.select_source(upper, hub, Placement::WidestPath, routes,
                              backlog),
            64);
  EXPECT_FALSE(cat.has_replica(upper, 63));
}

TEST(FlowEngine, SingleFlowCompletionRecord) {
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  w.add_link(a, b, wan::LinkType::T3, Time::ms(1));
  wan::RouteTable routes(w);
  wan::FlowEngine engine(routes);
  const Bytes bytes = 10'000'000;
  std::vector<wan::FlowEngine::Completion> done;
  engine.start(a, b, bytes, 77);
  EXPECT_EQ(engine.active(), 1);
  EXPECT_GT(engine.rate_bps(0), 0.0);
  engine.run_to_completion([&](const auto& c) { done.push_back(c); });
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].src, a);
  EXPECT_EQ(done[0].dst, b);
  EXPECT_EQ(done[0].bytes, bytes);
  EXPECT_EQ(done[0].tag, 77u);
  const double t3 = wan::link_bandwidth(wan::LinkType::T3).bytes_per_sec();
  EXPECT_NEAR(done[0].finish.as_sec(), static_cast<double>(bytes) / t3, 1e-3);
  EXPECT_EQ(engine.active(), 0);
  EXPECT_EQ(engine.stats().started, 1);
  EXPECT_EQ(engine.stats().completed, 1);
  EXPECT_EQ(engine.stats().active_peak, 1);
}

TEST(FlowEngine, RejectsBadStarts) {
  wan::Wan w;
  w.add_site("a");
  w.add_site("island");
  wan::RouteTable routes(w);
  wan::FlowEngine engine(routes);
  EXPECT_THROW(engine.start(0, 1, 100), std::invalid_argument);
  EXPECT_THROW(engine.start(0, 0, 100), ContractError);
  EXPECT_THROW(engine.start(0, 1, 0), ContractError);
}

TEST(FlowEngine, CallbackMayStartFollowOnFlows) {
  // A completion callback chaining a second transfer — the grid's
  // cache-then-refetch shape in miniature.
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId c = w.add_site("c");
  w.add_link(a, b, wan::LinkType::T3, Time::ms(1));
  w.add_link(b, c, wan::LinkType::T3, Time::ms(1));
  wan::RouteTable routes(w);
  wan::FlowEngine engine(routes);
  std::vector<std::uint64_t> order;
  engine.start(a, b, 1'000'000, 1);
  engine.run_to_completion([&](const auto& done) {
    order.push_back(done.tag);
    if (done.tag == 1) engine.start(b, c, 2'000'000, 2);
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(engine.active(), 0);
}

// A two-second burst of pulls on the grid federation, pinned bit for
// bit. Every third leaf rides a 1.544 Mb/s T1, so arrivals land on
// saturated T1 links with a zero share and pull their neighbours in,
// and affected sets span the leaves' access links and the backbone.
// The hash covers each completion's tag and finish picosecond in
// completion order.
TEST(FlowEngine, FederationBurstIsPinned) {
  const Federation fed{FederationConfig{}};
  wan::RouteTable routes(fed.wan());
  wan::FlowEngine engine(routes);
  struct Pull {
    SiteId src, dst;
    Bytes bytes;
    Time start;
  };
  std::vector<Pull> pulls;
  Rng rng(1992);
  const auto& leaves = fed.leaves();
  for (int i = 0; i < 160; ++i) {
    const SiteId dst = leaves[rng.below(leaves.size())].site;
    SiteId src = fed.archive_of(
        static_cast<std::int32_t>(rng.below(fed.archives().size())));
    if (rng.below(3) == 0) {
      src = leaves[rng.below(leaves.size())].site;
      if (src == dst) continue;
    }
    const Bytes bytes = 100'000 + static_cast<Bytes>(rng.below(2'000'000));
    pulls.push_back({src, dst, bytes,
                     Time::ms(static_cast<double>(rng.below(2000)))});
  }
  std::stable_sort(
      pulls.begin(), pulls.end(),
      [](const Pull& a, const Pull& b) { return a.start < b.start; });
  std::uint64_t hash = 14695981039346656037u;  // FNV-1a
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8)
      hash = (hash ^ (v & 0xff)) * 1099511628211u;
  };
  const auto done = [&](const wan::FlowEngine::Completion& c) {
    mix(c.tag);
    mix(c.finish.picoseconds());
  };
  for (std::size_t i = 0; i < pulls.size(); ++i) {
    engine.run_until(pulls[i].start, done);
    engine.start(pulls[i].src, pulls[i].dst, pulls[i].bytes, i);
  }
  engine.run_to_completion(done);
  const auto& e = engine.stats();
  EXPECT_EQ(e.completed, static_cast<std::int64_t>(pulls.size()));
  EXPECT_EQ(engine.now().picoseconds(), 80683176165805u);
  EXPECT_EQ(hash, 66770490254735211u);
  EXPECT_EQ(e.recomputes, 572);
  EXPECT_EQ(e.rate_updates, 1878);
  EXPECT_EQ(e.stale_events, 1720);
  EXPECT_EQ(e.active_peak, 93);
}

GridSimulator::Stats run_grid(Placement policy, obs::Registry* reg = nullptr) {
  const Federation fed(small_config());
  WorkloadGenerator wl(small_workload(), fed);
  GridSimulator sim(fed, policy);
  sim.run(wl);
  if (reg != nullptr) sim.export_counters(*reg);
  return sim.stats();
}

TEST(GridSimulator, RequestAccountingBalances) {
  for (const Placement p : {Placement::WidestPath, Placement::LeastLoaded}) {
    const auto s = run_grid(p);
    EXPECT_GT(s.requests, 500);
    EXPECT_GT(s.flows_completed, 0);
    // Every request is exactly one of: cache hit, coalesced join,
    // unroutable, or the head of a completed flow.
    EXPECT_EQ(s.requests,
              s.cache_hits + s.coalesced + s.unroutable + s.flows_completed);
    EXPECT_EQ(s.unroutable, 0);  // the federation is fully connected
    EXPECT_EQ(s.cache_fills + s.cache_rejected, s.flows_completed);
    EXPECT_GT(s.bytes_moved, 0);
    EXPECT_GE(s.mean_slowdown(), 1.0 - 1e-9);
  }
}

TEST(GridSimulator, CountersMatchStatsAndConserveBytes) {
  obs::Registry reg;
  const auto s = run_grid(Placement::WidestPath, &reg);
  EXPECT_EQ(reg.value("grid.requests"), s.requests);
  EXPECT_EQ(reg.value("grid.flows.completed"), s.flows_completed);
  EXPECT_EQ(reg.value("grid.bytes_moved"),
            static_cast<std::int64_t>(s.bytes_moved));
  // Byte conservation: total site ingress == total egress == moved.
  const Federation fed(small_config());
  std::int64_t in = 0, out = 0;
  const auto sum = [&](const GridSite& g) {
    const std::string base = "grid.site." + fed.wan().site_name(g.site);
    in += reg.value(base + ".ingress_bytes");
    out += reg.value(base + ".egress_bytes");
  };
  for (const GridSite& g : fed.archives()) sum(g);
  for (const GridSite& g : fed.leaves()) sum(g);
  EXPECT_EQ(in, static_cast<std::int64_t>(s.bytes_moved));
  EXPECT_EQ(out, static_cast<std::int64_t>(s.bytes_moved));
}

TEST(GridSimulator, DeterministicAcrossRuns) {
  obs::Registry a, b;
  run_grid(Placement::LeastLoaded, &a);
  run_grid(Placement::LeastLoaded, &b);
  EXPECT_EQ(a.json(), b.json());
}

TEST(GridSimulator, CachingServesRepeatRequests) {
  // With a Zipf-skewed universe and room in the leaf caches, repeat
  // pulls of popular datasets must hit.
  const auto s = run_grid(Placement::WidestPath);
  EXPECT_GT(s.cache_hits, 0);
  EXPECT_GT(s.cache_fills, 0);
}

TEST(GridSimulator, SingleShot) {
  const Federation fed(small_config());
  WorkloadGenerator wl(small_workload(), fed);
  GridSimulator sim(fed, Placement::WidestPath);
  sim.run(wl);
  WorkloadGenerator wl2(small_workload(), fed);
  EXPECT_THROW(sim.run(wl2), ContractError);
}

// A grid day pinned bit for bit, per policy: request outcomes, the end
// time, the slowdown sum as a hexfloat and the engine's pass counts.
// Which flows share a water-fill pass, the order of its residual
// subtractions, the catalog's source choice and the in-flight joins all
// feed these numbers.
struct PinnedDay {
  Placement policy;
  std::int64_t requests, cache_hits, coalesced, flows;
  Bytes bytes_moved;
  std::uint64_t end_ps;
  double slowdown_sum;
  std::int64_t recomputes, rate_updates, stale_events, active_peak;
};

void expect_day(const FederationConfig& fc, const WorkloadConfig& wc,
                const PinnedDay& want) {
  const Federation fed(fc);
  WorkloadGenerator wl(wc, fed);
  GridSimulator sim(fed, want.policy);
  sim.run(wl);
  const auto& s = sim.stats();
  const auto& e = sim.engine_stats();
  SCOPED_TRACE(placement_name(want.policy));
  EXPECT_EQ(s.requests, want.requests);
  EXPECT_EQ(s.cache_hits, want.cache_hits);
  EXPECT_EQ(s.coalesced, want.coalesced);
  EXPECT_EQ(s.flows_completed, want.flows);
  EXPECT_EQ(s.unroutable, 0);
  EXPECT_EQ(s.requests,
            s.cache_hits + s.coalesced + s.unroutable + s.flows_completed);
  EXPECT_EQ(s.cache_fills + s.cache_rejected, s.flows_completed);
  EXPECT_EQ(s.bytes_moved, want.bytes_moved);
  EXPECT_EQ(sim.now().picoseconds(), want.end_ps);
  EXPECT_EQ(s.slowdown_sum, want.slowdown_sum);
  EXPECT_EQ(e.recomputes, want.recomputes);
  EXPECT_EQ(e.rate_updates, want.rate_updates);
  EXPECT_EQ(e.stale_events, want.stale_events);
  EXPECT_EQ(e.active_peak, want.active_peak);
  EXPECT_EQ(e.started, s.flows_completed);
}

// The default 28-site federation with 1 GB leaf caches under a busy
// stream: least-loaded peaks at 67 concurrent flows, and full caches
// reject most fills.
TEST(GridSimulator, PinnedDayPerPolicy) {
  FederationConfig fc;
  fc.leaf_storage = 1'000'000'000;
  WorkloadConfig wc;
  wc.days = 0.08;
  wc.requests_per_day = 400000.0;
  wc.dataset_count = 5000;
  expect_day(fc, wc,
             {Placement::WidestPath, 32363, 2330, 17, 30016, 299385295704,
              7563508669965844u, 0x1.c15a198e9b63bp+15, 58344, 85075, 55059,
              53});
  expect_day(fc, wc,
             {Placement::LeastLoaded, 32363, 2324, 32, 30007, 299248827686,
              8041700296908848u, 0x1.21c4cab323cep+16, 79953, 133119, 103112,
              67});
}

// 9 regions x 8 leaves: 90 sites, so catalog and in-flight rows are
// two words, and replicas cached at sites >= 64 serve later pulls.
TEST(GridSimulator, PinnedDayOnMultiWordRows) {
  FederationConfig fc;
  fc.regions = 9;
  fc.leaves_per_region = 8;
  fc.leaf_storage = 1'000'000'000;
  WorkloadConfig wc;
  wc.days = 0.05;
  wc.requests_per_day = 400000.0;
  wc.dataset_count = 2000;
  ASSERT_GT(Federation(fc).wan().site_count(), 64);
  expect_day(fc, wc,
             {Placement::WidestPath, 20358, 2405, 2, 17951, 178199137921,
              4342724013814934u, 0x1.4550d925e33ebp+14, 22883, 23709, 5758,
              33});
  expect_day(fc, wc,
             {Placement::LeastLoaded, 20358, 2405, 4, 17949, 178179890946,
              4342724013814934u, 0x1.5e9b45b00520dp+14, 26862, 26767, 8818,
              35});
}

}  // namespace
}  // namespace hpccsim::grid
