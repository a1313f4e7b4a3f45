// Fast-path vs reference equivalence tests for the flit-level wormhole
// network (docs/MODEL.md §10).
//
// The fast schedule of FlitNetwork (active-set stepping, idle-cycle
// skip, wormhole fast-forward) claims *byte-identical* results to naive
// per-cycle full-scan stepping. These tests hold it to that:
// randomized-traffic property sweeps across routing algorithms, mesh
// shapes, and load levels compare run() against run_reference() on
// every delivered cycle and every counter. run_reference() runs the same
// band step, so golden pins (counters, a hash of every delivered cycle,
// the schedule counters at 1 and 4 threads) hold the step itself, next
// to allocation accounting and the overflow diagnostics.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mesh/flit.hpp"
#include "mesh/traffic.hpp"
#include "obs/counters.hpp"
#include "util/rng.hpp"

namespace hpccsim::mesh {
namespace {

struct Injection {
  NodeId src;
  NodeId dst;
  Bytes bytes;
  std::uint64_t cycle;
};

// Seeded random workload: `gap_cycles` spreads the injections; small
// gaps saturate the mesh, large gaps leave it idle between worms.
std::vector<Injection> random_workload(const Mesh2D& m, std::uint64_t seed,
                                       int count, std::uint64_t gap_cycles) {
  Rng rng(seed);
  std::vector<Injection> out;
  std::uint64_t at = 0;
  for (int i = 0; i < count; ++i) {
    const auto s = static_cast<NodeId>(rng.below(m.node_count()));
    auto d = static_cast<NodeId>(rng.below(m.node_count()));
    if (d == s) d = (d + 1) % m.node_count();
    at += rng.below(2 * gap_cycles + 1);
    out.push_back({s, d, 32 + rng.below(480), at});
  }
  return out;
}

void fill(FlitNetwork& net, const std::vector<Injection>& w) {
  for (const auto& i : w) net.inject(i.src, i.dst, i.bytes, i.cycle);
}

// The equivalence oracle: fast run() vs full-scan run_reference() must
// agree on every message's delivered cycle, every traffic counter, and
// the final cycle count.
void expect_equivalent(const Mesh2D& mesh, const FlitParams& fp,
                       const std::vector<Injection>& w,
                       const std::string& what) {
  FlitNetwork fast(mesh, fp);
  FlitNetwork ref(mesh, fp);
  fill(fast, w);
  fill(ref, w);
  fast.run();
  ref.run_reference();
  ASSERT_EQ(fast.messages().size(), ref.messages().size()) << what;
  for (std::size_t i = 0; i < fast.messages().size(); ++i) {
    ASSERT_TRUE(fast.messages()[i].delivered) << what << " msg " << i;
    ASSERT_TRUE(ref.messages()[i].delivered) << what << " msg " << i;
    ASSERT_EQ(fast.messages()[i].delivered_cycle,
              ref.messages()[i].delivered_cycle)
        << what << " msg " << i;
  }
  EXPECT_EQ(fast.link_flits(), ref.link_flits()) << what;
  EXPECT_EQ(fast.injected_flits(), ref.injected_flits()) << what;
  EXPECT_EQ(fast.ejected_flits(), ref.ejected_flits()) << what;
  EXPECT_EQ(fast.cycle(), ref.cycle()) << what;
  EXPECT_EQ(fast.in_flight_flits(), 0);
  EXPECT_EQ(ref.undelivered(), 0);
  // The reference schedule must not engage any fast-path machinery.
  EXPECT_EQ(ref.skipped_cycles(), 0u) << what;
  EXPECT_EQ(ref.fastforwarded_flits(), 0u) << what;
  EXPECT_EQ(ref.router_visits(), 0u) << what;
}

// ---------------------------------------------- randomized property --

struct EquivCase {
  int width, height;
  RouteAlgo algo;
  std::uint64_t gap_cycles;  // 0 = everything at once (saturating)
};

class FlitEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(FlitEquivalence, FastPathMatchesReference) {
  const EquivCase c = GetParam();
  const Mesh2D mesh(c.width, c.height);
  FlitParams fp;
  fp.routing = c.algo;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const auto w =
        random_workload(mesh, seed, 3 * mesh.node_count(), c.gap_cycles);
    expect_equivalent(
        mesh, fp, w,
        std::to_string(c.width) + "x" + std::to_string(c.height) + " " +
            route_algo_name(c.algo) + " gap=" + std::to_string(c.gap_cycles) +
            " seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAlgosLoads, FlitEquivalence,
    ::testing::Values(
        // Saturating loads: everything injected in a tight window.
        EquivCase{8, 8, RouteAlgo::XY, 0},
        EquivCase{8, 8, RouteAlgo::WestFirst, 0},
        EquivCase{16, 4, RouteAlgo::XY, 4},
        EquivCase{16, 4, RouteAlgo::WestFirst, 4},
        // Mixed: bursts with idle windows between them.
        EquivCase{6, 6, RouteAlgo::XY, 300},
        EquivCase{6, 6, RouteAlgo::WestFirst, 300},
        // Sparse: mostly lone worms — exercises skip + fast-forward.
        EquivCase{8, 8, RouteAlgo::XY, 1500},
        EquivCase{8, 8, RouteAlgo::WestFirst, 1500},
        EquivCase{1, 8, RouteAlgo::XY, 2000},
        EquivCase{12, 2, RouteAlgo::WestFirst, 2000}));

// Pattern-shaped traffic (transpose and hotspot hit systematic
// contention structure that uniform random can miss).
TEST(FlitEquivalenceTraffic, PatternsMatchReference) {
  const Mesh2D mesh(8, 8);
  for (const Pattern p :
       {Pattern::Transpose, Pattern::HotSpot, Pattern::BitReversal}) {
    for (const RouteAlgo algo : {RouteAlgo::XY, RouteAlgo::WestFirst}) {
      TrafficConfig cfg;
      cfg.pattern = p;
      cfg.messages_per_node = 5;
      cfg.message_bytes = 256;
      cfg.mean_gap = sim::Time::us(40);
      cfg.seed = 7;
      FlitParams fp;
      fp.routing = algo;
      FlitNetwork probe(mesh, fp);
      const double cyc_us = probe.cycle_time().as_us();
      std::vector<Injection> w;
      for (const auto& t : generate_traffic(mesh, cfg))
        w.push_back({t.src, t.dst, t.bytes,
                     static_cast<std::uint64_t>(t.depart.as_us() / cyc_us)});
      expect_equivalent(mesh, fp, w,
                        std::string(pattern_name(p)) + "/" +
                            route_algo_name(algo));
    }
  }
}

// step() and step_reference() agree cycle by cycle, not just at the end.
TEST(FlitEquivalenceTraffic, LockstepSingleCycles) {
  const Mesh2D mesh(6, 6);
  const auto w = random_workload(mesh, 42, 120, 20);
  FlitNetwork fast(mesh, FlitParams{});
  FlitNetwork ref(mesh, FlitParams{});
  fill(fast, w);
  fill(ref, w);
  for (int cycle = 0; cycle < 3000 && ref.undelivered() > 0; ++cycle) {
    const bool a = fast.step();
    const bool b = ref.step_reference();
    ASSERT_EQ(a, b) << "moved flag diverged at cycle " << cycle;
    ASSERT_EQ(fast.link_flits(), ref.link_flits()) << "cycle " << cycle;
    ASSERT_EQ(fast.injected_flits(), ref.injected_flits())
        << "cycle " << cycle;
    ASSERT_EQ(fast.ejected_flits(), ref.ejected_flits()) << "cycle " << cycle;
    ASSERT_EQ(fast.in_flight_flits(), ref.in_flight_flits())
        << "cycle " << cycle;
  }
  EXPECT_EQ(ref.undelivered(), 0);
  for (std::size_t i = 0; i < fast.messages().size(); ++i)
    EXPECT_EQ(fast.messages()[i].delivered_cycle,
              ref.messages()[i].delivered_cycle);
}

// ---------------------------------------- parallel shard scheduler --

// The parallel oracle: run() sharded across `threads` workers must be
// byte-identical to the sequential fast path (itself byte-identical to
// the reference) on every semantic observable. Scheduling diagnostics
// (skip/ffwd/visit/shard counters) are NOT compared: they describe the
// schedule, which legitimately differs across thread counts.
void expect_parallel_equivalent(const Mesh2D& mesh, const FlitParams& fp,
                                const std::vector<Injection>& w, int threads,
                                std::uint64_t window,
                                const std::string& what) {
  FlitNetwork seq(mesh, fp);
  FlitNetwork par(mesh, fp);
  fill(seq, w);
  fill(par, w);
  par.set_threads(threads);
  if (window > 0) par.set_window(window);
  seq.run();
  par.run();
  ASSERT_EQ(par.messages().size(), seq.messages().size()) << what;
  for (std::size_t i = 0; i < par.messages().size(); ++i) {
    ASSERT_TRUE(par.messages()[i].delivered) << what << " msg " << i;
    ASSERT_EQ(par.messages()[i].delivered_cycle,
              seq.messages()[i].delivered_cycle)
        << what << " msg " << i;
  }
  EXPECT_EQ(par.link_flits(), seq.link_flits()) << what;
  EXPECT_EQ(par.injected_flits(), seq.injected_flits()) << what;
  EXPECT_EQ(par.ejected_flits(), seq.ejected_flits()) << what;
  EXPECT_EQ(par.cycle(), seq.cycle()) << what;
  EXPECT_EQ(par.in_flight_flits(), 0) << what;
  EXPECT_EQ(par.undelivered(), 0) << what;
  // The sequential run must never touch the shard machinery.
  EXPECT_EQ(seq.parallel_windows(), 0u) << what;
  EXPECT_EQ(seq.boundary_flits(), 0u) << what;
}

struct ParEquivCase {
  int width, height;
  RouteAlgo algo;
  std::uint64_t gap_cycles;
  int threads;
};

class FlitParallelEquivalence
    : public ::testing::TestWithParam<ParEquivCase> {};

TEST_P(FlitParallelEquivalence, MatchesSequentialFastPath) {
  const ParEquivCase c = GetParam();
  const Mesh2D mesh(c.width, c.height);
  FlitParams fp;
  fp.routing = c.algo;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const auto w =
        random_workload(mesh, seed, 3 * mesh.node_count(), c.gap_cycles);
    expect_parallel_equivalent(
        mesh, fp, w, c.threads, 0,
        std::to_string(c.width) + "x" + std::to_string(c.height) + " " +
            route_algo_name(c.algo) + " gap=" + std::to_string(c.gap_cycles) +
            " threads=" + std::to_string(c.threads) +
            " seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAlgosLoadsThreads, FlitParallelEquivalence,
    ::testing::Values(
        // Saturating loads across the thread axis.
        ParEquivCase{8, 8, RouteAlgo::XY, 0, 2},
        ParEquivCase{8, 8, RouteAlgo::XY, 0, 4},
        ParEquivCase{8, 8, RouteAlgo::XY, 0, 8},
        ParEquivCase{8, 8, RouteAlgo::WestFirst, 0, 4},
        // Wide-short mesh: minimum eligible height, uneven row bands.
        ParEquivCase{16, 4, RouteAlgo::XY, 4, 4},
        ParEquivCase{16, 4, RouteAlgo::WestFirst, 4, 8},
        // Tall-narrow: maximum boundary traffic relative to area.
        ParEquivCase{8, 16, RouteAlgo::XY, 10, 4},
        // Sparse: idle skip and lone-worm fast-forward interleave with
        // parallel bursts.
        ParEquivCase{8, 8, RouteAlgo::XY, 1500, 4},
        ParEquivCase{8, 8, RouteAlgo::WestFirst, 1500, 2}));

// Tiny burst windows stress burst startup/drain: every few cycles the
// shards re-mirror edge credits and re-derive bitmaps. Results must be
// independent of the window size, down to window = 1.
TEST(FlitParallel, WindowSizeDoesNotChangeResults) {
  const Mesh2D mesh(8, 8);
  const auto w = random_workload(mesh, 5, 192, 8);
  for (const std::uint64_t window : {1u, 2u, 3u, 17u, 1024u}) {
    expect_parallel_equivalent(mesh, FlitParams{}, w, 4, window,
                               "window=" + std::to_string(window));
  }
}

// threads=1 must take the sequential path outright: no shard counters,
// no windows, identical results.
TEST(FlitParallel, SingleThreadFallsBackToSequential) {
  const Mesh2D mesh(8, 8);
  const auto w = random_workload(mesh, 9, 192, 0);
  FlitNetwork net(mesh, FlitParams{});
  fill(net, w);
  net.set_threads(1);
  net.run();
  EXPECT_EQ(net.parallel_windows(), 0u);
  EXPECT_EQ(net.boundary_flits(), 0u);
  EXPECT_EQ(net.barrier_waits(), 0u);
  EXPECT_EQ(net.undelivered(), 0);
}

// Meshes too small to shard silently run sequentially even with
// threads > 1 (still byte-identical, still zero shard counters).
TEST(FlitParallel, SmallMeshFallsBackToSequential) {
  const Mesh2D mesh(6, 6);  // 36 routers < eligibility floor
  const auto w = random_workload(mesh, 4, 108, 0);
  FlitNetwork net(mesh, FlitParams{});
  FlitNetwork seq(mesh, FlitParams{});
  fill(net, w);
  fill(seq, w);
  net.set_threads(8);
  net.run();
  seq.run();
  EXPECT_EQ(net.parallel_windows(), 0u);
  EXPECT_EQ(net.cycle(), seq.cycle());
  EXPECT_EQ(net.link_flits(), seq.link_flits());
}

// A saturated eligible mesh must actually engage the shard scheduler
// and report it through the observability registry.
TEST(FlitParallel, ShardCountersEngageAndDump) {
  const Mesh2D mesh(8, 8);
  const auto w = random_workload(mesh, 21, 192, 0);
  FlitNetwork net(mesh, FlitParams{});
  fill(net, w);
  net.set_threads(4);
  net.run();
  EXPECT_GT(net.parallel_windows(), 0u);
  EXPECT_GT(net.boundary_flits(), 0u);
  obs::Registry reg;
  net.dump_counters(reg);
  EXPECT_EQ(reg.value("mesh.flit.shard.boundary_flits"),
            static_cast<std::int64_t>(net.boundary_flits()));
  EXPECT_EQ(reg.value("mesh.flit.shard.barrier_waits"),
            static_cast<std::int64_t>(net.barrier_waits()));
  EXPECT_EQ(reg.value("mesh.flit.shard.windows"),
            static_cast<std::int64_t>(net.parallel_windows()));
}

// ------------------------------------------- scheduling counters ----

TEST(FlitFastPath, SparseTrafficEngagesSkipAndFastForward) {
  const Mesh2D mesh(8, 8);
  FlitNetwork net(mesh, FlitParams{});
  // Lone worms separated by long idle windows: every one should be
  // fast-forwarded and every gap skipped.
  std::uint64_t at = 0;
  for (int i = 0; i < 20; ++i) {
    net.inject(static_cast<NodeId>(i % 8), static_cast<NodeId>(56 + i % 8),
               512, at);
    at += 10'000;
  }
  net.run();
  EXPECT_EQ(net.fastforwarded_messages(), 20u);
  EXPECT_EQ(net.fastforwarded_flits(), 20u * 32u);
  EXPECT_GT(net.skipped_cycles(), 100'000u);
  // Fully fast-forwarded: the stepping loop never ran a cycle.
  EXPECT_EQ(net.router_visits(), 0u);
}

TEST(FlitFastPath, SaturatedTrafficDoesNotFastForward) {
  const Mesh2D mesh(6, 6);
  FlitNetwork net(mesh, FlitParams{});
  const auto w = random_workload(mesh, 3, 200, 0);
  fill(net, w);
  net.run();
  // With everything in flight at once there is never a lone worm.
  EXPECT_EQ(net.fastforwarded_messages(), 0u);
  EXPECT_EQ(net.skipped_cycles(), 0u);
  EXPECT_GT(net.router_visits(), 0u);
  // Active-set stepping must beat the full scan's visit count.
  EXPECT_LT(net.router_visits(),
            net.cycle() * static_cast<std::uint64_t>(mesh.node_count()));
}

// ------------------------------------------------ golden counters ----

// Pinned config: any change to these totals means the flit model's
// behaviour changed and must be owned (see bench/baselines.json for the
// same policy on sim time).
TEST(FlitGolden, PinnedCountersAndRegistryDump) {
  const Mesh2D mesh(8, 8);
  TrafficConfig cfg;
  cfg.pattern = Pattern::UniformRandom;
  cfg.messages_per_node = 10;
  cfg.message_bytes = 512;
  cfg.mean_gap = sim::Time::us(100);
  cfg.seed = 92;
  FlitNetwork net(mesh, FlitParams{});
  const double cyc_us = net.cycle_time().as_us();
  for (const auto& t : generate_traffic(mesh, cfg))
    net.inject(t.src, t.dst, t.bytes,
               static_cast<std::uint64_t>(t.depart.as_us() / cyc_us));
  net.run();

  EXPECT_EQ(net.injected_flits(), 20480u);  // 640 messages x 32 flits
  EXPECT_EQ(net.ejected_flits(), 20480u);
  EXPECT_EQ(net.link_flits(), 107040u);
  EXPECT_EQ(net.cycle(), 2738u);

  obs::Registry reg;
  net.dump_counters(reg);
  EXPECT_EQ(reg.value("mesh.link.flits"),
            static_cast<std::int64_t>(net.link_flits()));
  EXPECT_EQ(reg.value("mesh.flit.injected"), 20480);
  EXPECT_EQ(reg.value("mesh.flit.ejected"), 20480);
  EXPECT_EQ(reg.value("mesh.flit.cycles"),
            static_cast<std::int64_t>(net.cycle()));
  EXPECT_EQ(reg.value("mesh.flit.cycles_skipped"),
            static_cast<std::int64_t>(net.skipped_cycles()));
  EXPECT_EQ(reg.value("mesh.flit.ffwd_flits"),
            static_cast<std::int64_t>(net.fastforwarded_flits()));
}

// FNV-1a over every message's delivered cycle: moves if any delivery
// moves.
std::uint64_t delivery_hash(const FlitNetwork& net) {
  std::uint64_t h = 14695981039346656037u;
  for (const FlitMessage& m : net.messages())
    for (int b = 0; b < 64; b += 8)
      h = (h ^ ((m.delivered_cycle >> b) & 0xff)) * 1099511628211u;
  return h;
}

// The schedule counters of a pinned run at one thread count. They
// describe the schedule, not the traffic, so each count has its own.
struct SchedulePin {
  int threads;
  std::uint64_t skipped, ffwd_messages, visits, windows, boundary;
};

void expect_schedule(const FlitNetwork& net, const SchedulePin& p) {
  const std::string at = std::to_string(p.threads) + " threads";
  EXPECT_EQ(net.skipped_cycles(), p.skipped) << at;
  EXPECT_EQ(net.fastforwarded_messages(), p.ffwd_messages) << at;
  EXPECT_EQ(net.router_visits(), p.visits) << at;
  EXPECT_EQ(net.parallel_windows(), p.windows) << at;
  EXPECT_EQ(net.boundary_flits(), p.boundary) << at;
}

// The saturated Delta-mesh point of the flit_throughput thread sweep
// (--shape 33x16 --messages 6 --gap-us 20) under `algo`.
void run_delta_saturated(FlitNetwork& net) {
  TrafficConfig cfg;
  cfg.messages_per_node = 6;
  cfg.message_bytes = 1024;
  cfg.mean_gap = sim::Time::us(20);
  cfg.seed = 1992;
  const double cyc_us = net.cycle_time().as_us();
  for (const auto& t : generate_traffic(net.mesh(), cfg))
    net.inject(t.src, t.dst, t.bytes,
               static_cast<std::uint64_t>(t.depart.as_us() / cyc_us));
  net.run();
}

// Pinned exactly, at 1 and 4 threads.
TEST(FlitGolden, DeltaMeshSaturatedPoint) {
  for (const SchedulePin& pin : {SchedulePin{1, 0, 0, 2104065, 0, 0},
                                 SchedulePin{4, 0, 0, 2104065, 6, 531904}}) {
    FlitNetwork net(Mesh2D(33, 16), FlitParams{});
    net.set_threads(pin.threads);
    run_delta_saturated(net);
    EXPECT_EQ(net.cycle(), 5203u);
    EXPECT_EQ(net.link_flits(), 3285888u);
    EXPECT_EQ(net.injected_flits(), 202752u);  // 3168 messages x 64 flits
    EXPECT_EQ(net.ejected_flits(), 202752u);
    EXPECT_EQ(delivery_hash(net), 15095078499303793533u);
    EXPECT_DOUBLE_EQ((net.cycle_time() * net.cycle()).as_sec(), 0.00332992);
    expect_schedule(net, pin);
  }
}

// The same point under west-first routing: the adaptive allocation
// path ablate_routing runs.
TEST(FlitGolden, DeltaMeshSaturatedWestFirst) {
  FlitParams fp;
  fp.routing = RouteAlgo::WestFirst;
  for (const SchedulePin& pin : {SchedulePin{1, 0, 0, 4445685, 0, 0},
                                 SchedulePin{4, 0, 0, 4445685, 10, 531904}}) {
    FlitNetwork net(Mesh2D(33, 16), fp);
    net.set_threads(pin.threads);
    run_delta_saturated(net);
    EXPECT_EQ(net.cycle(), 10172u);
    EXPECT_EQ(net.link_flits(), 3285888u);
    EXPECT_EQ(net.injected_flits(), 202752u);
    EXPECT_EQ(delivery_hash(net), 14162933052759310140u);
    expect_schedule(net, pin);
  }
}

// Sparse traffic whose source queues are out of inject-cycle order:
// every fourth node queues 4 messages at random cycles in 40 clusters
// 10,000 cycles apart, so a later message is often due sooner than the
// one ahead of it and waits behind it. Lone worms fast-forward, the
// gaps are skipped, and clustered worms contend. `from` offsets every
// cycle.
void inject_sparse_queues(FlitNetwork& net, std::uint64_t seed,
                          std::uint64_t from) {
  Rng rng(seed);
  const NodeId n = net.mesh().node_count();
  for (int k = 0; k < 4; ++k)
    for (NodeId s = 0; s < n; s += 4) {
      auto d = static_cast<NodeId>(rng.below(n));
      if (d == s) d = (d + 1) % n;
      net.inject(s, d, 64 * (1 + rng.below(8)),
                 from + 10'000 * rng.below(40) + rng.below(60));
    }
}

// Pinned at 1 and 4 threads. The second batch is injected after the
// first run() returns and starts 50,000 cycles before it ended, so some
// of its messages are already due.
TEST(FlitGolden, SparseOutOfOrderQueuesAcrossTwoRuns) {
  for (const SchedulePin& pin : {SchedulePin{1, 727903, 18, 13544, 0, 0},
                                 SchedulePin{4, 704005, 18, 13544, 27, 5448}}) {
    FlitNetwork net(Mesh2D(8, 8), FlitParams{});
    net.set_threads(pin.threads);
    inject_sparse_queues(net, 23, 0);
    net.run();
    EXPECT_EQ(net.cycle(), 390059u);
    inject_sparse_queues(net, 24, net.cycle() - 50'000);
    net.run();
    EXPECT_EQ(net.cycle(), 730160u);
    EXPECT_EQ(net.link_flits(), 13384u);
    EXPECT_EQ(net.undelivered(), 0);
    EXPECT_EQ(delivery_hash(net), 16177467534429282586u);
    expect_schedule(net, pin);
  }
}

// --------------------------------------- diagnostics and latencies ----

TEST(FlitDiagnostics, MaxCyclesThrowReportsState)
{
  FlitNetwork net(Mesh2D(4, 4), FlitParams{});
  net.inject(0, 15, 256, 0);
  net.inject(5, 10, 256, 0);
  try {
    net.run(3);
    FAIL() << "expected max_cycles overflow";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exceeded max_cycles=3"), std::string::npos) << what;
    EXPECT_NE(what.find("cycle=3"), std::string::npos) << what;
    EXPECT_NE(what.find("in-flight flits="), std::string::npos) << what;
    EXPECT_NE(what.find("undelivered messages=2"), std::string::npos) << what;
    // Sequential run: the diagnostics must say so.
    EXPECT_NE(what.find("threads=1"), std::string::npos) << what;
    EXPECT_NE(what.find("window="), std::string::npos) << what;
  }
}

TEST(FlitDiagnostics, ParallelMaxCyclesThrowReportsThreadsAndWindow) {
  FlitNetwork net(Mesh2D(8, 8), FlitParams{});
  net.set_threads(4);
  net.set_window(256);
  net.inject(0, 63, 4096, 0);
  net.inject(9, 54, 4096, 0);
  try {
    net.run(10);
    FAIL() << "expected max_cycles overflow";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exceeded max_cycles=10"), std::string::npos) << what;
    EXPECT_NE(what.find("threads=4"), std::string::npos) << what;
    EXPECT_NE(what.find("window=256"), std::string::npos) << what;
  }
}

TEST(FlitDiagnostics, ReferenceRunThrowsSameDiagnostics) {
  FlitNetwork net(Mesh2D(4, 4), FlitParams{});
  net.inject(0, 15, 256, 0);
  EXPECT_THROW(net.run_reference(2), std::runtime_error);
}

TEST(FlitDiagnostics, IdleSkipRespectsMaxCycles) {
  FlitNetwork net(Mesh2D(4, 4), FlitParams{});
  // Far-future injection: the skip must clamp at max_cycles and throw,
  // exactly as per-cycle stepping would.
  net.inject(0, 15, 64, 1'000'000);
  EXPECT_THROW(net.run(1000), std::runtime_error);
  EXPECT_LE(net.cycle(), 1000u);
}

// A byte count whose flit count (bytes + flit_bytes - 1) / flit_bytes
// would wrap to 0 flits, or past the signed count phase 1 keeps, never
// emits a tail, so the run would spin to max_cycles; inject() refuses
// it instead.
TEST(FlitDiagnostics, InjectRejectsWrappingFlitCounts) {
  FlitNetwork net(Mesh2D(4, 4), FlitParams{});
  constexpr Bytes kMax = std::numeric_limits<Bytes>::max();
  EXPECT_THROW(net.inject(0, 15, kMax, 0), ContractError);
  EXPECT_THROW(net.inject(0, 15, kMax - 14, 0), ContractError);
  EXPECT_EQ(net.messages().size(), 0u);
  EXPECT_NO_THROW(net.inject(0, 15, kMax - 15, 0));  // 2^60 flits
  FlitParams bytewide;
  bytewide.flit_bytes = 1;
  FlitNetwork one(Mesh2D(4, 4), bytewide);
  EXPECT_THROW(one.inject(0, 15, Bytes{1} << 63, 0), ContractError);
  EXPECT_NO_THROW(one.inject(0, 15, (Bytes{1} << 63) - 1, 0));
}

TEST(FlitLatency, UndeliveredLatencyIsGuarded) {
  FlitNetwork net(Mesh2D(4, 4), FlitParams{});
  const auto i = net.inject(0, 15, 256, 0);
  // Not yet run: asking for a latency must not underflow into a huge
  // unsigned value.
  EXPECT_FALSE(net.try_latency_cycles(i).has_value());
  EXPECT_THROW(net.latency_cycles(i), ContractError);
  EXPECT_THROW(net.try_latency_cycles(99), ContractError);
  net.run();
  ASSERT_TRUE(net.try_latency_cycles(i).has_value());
  EXPECT_EQ(*net.try_latency_cycles(i), net.latency_cycles(i));
}

}  // namespace
}  // namespace hpccsim::mesh

// ---------------------------------------------- allocation accounting --
//
// After construction and inject(), stepping never touches the heap: the
// rings, port records, staging lists and heaps are all sized up front.
// Verified with a counting global operator new.

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Both new and delete are replaced together, so malloc/free pairing is
// consistent; GCC's heuristic only sees the free() half and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hpccsim::mesh {
namespace {

TEST(FlitAllocation, SequentialRunAfterInjectIsAllocationFree) {
  const Mesh2D mesh(8, 8);
  FlitNetwork saturated(mesh, FlitParams{});
  fill(saturated, random_workload(mesh, 31, 3 * mesh.node_count(), 0));
  FlitNetwork sparse(mesh, FlitParams{});
  inject_sparse_queues(sparse, 23, 0);
  for (FlitNetwork* net : {&saturated, &sparse}) {
    const std::uint64_t before = g_heap_allocs.load();
    net->run();
    EXPECT_EQ(g_heap_allocs.load() - before, 0u);
    EXPECT_EQ(net->undelivered(), 0);
  }
  EXPECT_EQ(saturated.skipped_cycles(), 0u);
  EXPECT_GT(sparse.fastforwarded_messages(), 0u);
}

}  // namespace
}  // namespace hpccsim::mesh
