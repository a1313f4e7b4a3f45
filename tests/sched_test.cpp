// Tests for the space-sharing scheduler: the rectangle allocator's
// invariants, fragmentation accounting, and the job scheduler's
// policies on node-count requests (FCFS head-of-line blocking vs EASY
// backfill).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "sched/partition.hpp"
#include "sched/platform.hpp"
#include "sched/workload.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hpccsim::sched {
namespace {

using mesh::Mesh2D;
using sim::Time;

// ---------------------------------------------------------- allocator --

TEST(Partition, AllocatesAndReleases) {
  PartitionAllocator a(Mesh2D(8, 8));
  const auto p = a.allocate(4, 4);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.rect_of(*p).nodes(), 16);
  EXPECT_EQ(a.nodes_busy(), 16);
  EXPECT_DOUBLE_EQ(a.utilization(), 0.25);
  a.release(*p);
  EXPECT_EQ(a.nodes_busy(), 0);
  EXPECT_EQ(a.active_partitions(), 0u);
}

TEST(Partition, AllocationsNeverOverlap) {
  PartitionAllocator a(Mesh2D(8, 8));
  Rng rng(3);
  std::vector<PartitionId> live;
  std::set<std::pair<int, int>> cells;
  auto cover = [&](const Rect& r, bool add) {
    for (int y = r.y; y < r.y + r.h; ++y)
      for (int x = r.x; x < r.x + r.w; ++x) {
        if (add) {
          EXPECT_TRUE(cells.insert({x, y}).second) << "overlap!";
        } else {
          cells.erase({x, y});
        }
      }
  };
  for (int step = 0; step < 300; ++step) {
    if (!live.empty() && rng.uniform() < 0.4) {
      const std::size_t i = rng.below(live.size());
      cover(a.rect_of(live[i]), false);
      a.release(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const auto w = static_cast<std::int32_t>(rng.range(1, 4));
      const auto h = static_cast<std::int32_t>(rng.range(1, 4));
      if (auto p = a.allocate(w, h)) {
        cover(a.rect_of(*p), true);
        live.push_back(*p);
      }
    }
    EXPECT_EQ(a.nodes_busy(), static_cast<std::int32_t>(cells.size()));
  }
}

TEST(Partition, FullMachineThenNothingFits) {
  PartitionAllocator a(Mesh2D(4, 4));
  ASSERT_TRUE(a.allocate(4, 4).has_value());
  EXPECT_FALSE(a.allocate(1, 1).has_value());
  EXPECT_DOUBLE_EQ(a.utilization(), 1.0);
}

TEST(Partition, TriesBothOrientations) {
  PartitionAllocator a(Mesh2D(8, 2));
  // 2x6 does not fit upright in a 8x2 mesh, but 6x2 does.
  const auto p = a.allocate(2, 6);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.rect_of(*p).nodes(), 12);
}

TEST(Partition, AllocateNodesRelaxesShape) {
  PartitionAllocator a(Mesh2D(8, 4));
  // Occupy the top 3 rows; only a 8x1 strip remains.
  ASSERT_TRUE(a.allocate(8, 3).has_value());
  const auto p = a.allocate_nodes(8);  // near-square 4x2 won't fit; 8x1 will
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.rect_of(*p).h, 1);
}

TEST(Partition, CandidateShapesAreExactFactorizations) {
  for (const std::int32_t n : {1, 12, 16, 17, 528}) {
    for (const auto& [w, h] : candidate_shapes(n)) {
      EXPECT_EQ(w * h, n);
      EXPECT_GE(w, h);  // widest-first ordering yields w >= h
    }
  }
  EXPECT_EQ(candidate_shapes(17).size(), 1u);  // prime: only 17x1
}

TEST(Partition, LargestFreeRectangleTracksHoles) {
  PartitionAllocator a(Mesh2D(4, 4));
  EXPECT_EQ(a.largest_free_rectangle(), 16);
  const auto p = a.allocate(2, 2);  // placed at origin
  ASSERT_TRUE(p.has_value());
  // Free space is an L: largest rectangle is 4x2 (bottom) = 8.
  EXPECT_EQ(a.largest_free_rectangle(), 8);
  a.release(*p);
  EXPECT_EQ(a.largest_free_rectangle(), 16);
}

TEST(Partition, FragmentationMetric) {
  PartitionAllocator a(Mesh2D(4, 4));
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);
  // A checkerboard-ish pattern: occupy middle columns to split free
  // space into two 1-wide strips.
  ASSERT_TRUE(a.allocate(2, 4).has_value());  // cols 0-1
  // Free: cols 2,3 as one 2x4 rect -> unfragmented.
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);
}

TEST(Partition, DeltaSizedMachine) {
  PartitionAllocator a(Mesh2D(33, 16));
  std::vector<PartitionId> ps;
  // Fill with 8x8 partitions: floor(33/8)=4 across, 2 down = 8 blocks.
  for (int i = 0; i < 8; ++i) {
    const auto p = a.allocate(8, 8);
    ASSERT_TRUE(p.has_value()) << i;
    ps.push_back(*p);
  }
  EXPECT_EQ(a.nodes_busy(), 512);
  EXPECT_FALSE(a.allocate(8, 8).has_value());  // only a 1-wide strip left
  for (const auto p : ps) a.release(p);
  EXPECT_EQ(a.nodes_busy(), 0);
}

TEST(Partition, RequestsLargerThanMeshAreRejected) {
  PartitionAllocator a(Mesh2D(8, 4));
  // 1x6 only fits rotated (6x1); 9x1 fits neither way on an 8x4.
  const auto rotated = a.allocate(1, 6);
  ASSERT_TRUE(rotated.has_value());
  a.release(*rotated);
  EXPECT_FALSE(a.allocate(9, 1).has_value());
  EXPECT_FALSE(a.allocate(9, 5).has_value());
  EXPECT_FALSE(a.allocate(5, 5).has_value());
  EXPECT_FALSE(a.allocate_nodes(33).has_value());  // 33 is prime: 1x33 only
  EXPECT_FALSE(a.allocate_nodes(64).has_value());  // more than the machine
}

TEST(Partition, ExactFitLeavesNothingAndComesBack) {
  PartitionAllocator a(Mesh2D(6, 5));
  const auto whole = a.allocate(6, 5);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(a.nodes_busy(), 30);
  EXPECT_EQ(a.largest_free_rectangle(), 0);
  EXPECT_FALSE(a.allocate(1, 1).has_value());
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);  // no free nodes at all
  a.release(*whole);
  EXPECT_EQ(a.largest_free_rectangle(), 30);
  EXPECT_TRUE(a.allocate(6, 5).has_value());
}

TEST(Partition, FragmentationThenCoalescing) {
  PartitionAllocator a(Mesh2D(8, 1));
  // Four 2-wide strips fill the row; releasing strips 0 and 2 leaves
  // four free nodes that only form 2-wide holes.
  std::vector<PartitionId> ps;
  for (int i = 0; i < 4; ++i) {
    const auto p = a.allocate(2, 1);
    ASSERT_TRUE(p.has_value());
    ps.push_back(*p);
  }
  a.release(ps[0]);
  a.release(ps[2]);
  EXPECT_EQ(a.largest_free_rectangle(), 2);
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.5);  // 2 of 4 free nodes stranded
  EXPECT_FALSE(a.allocate(4, 1).has_value());
  // Releasing the separator coalesces holes 0-1 and 2-5 into 0-5.
  a.release(ps[1]);
  EXPECT_EQ(a.largest_free_rectangle(), 6);
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);
  EXPECT_TRUE(a.allocate(6, 1).has_value());
}

TEST(Partition, AllocationOrderIsDeterministicAcrossJobs) {
  // The same allocate/release script replayed on independent
  // allocators under parallel_for must place every partition at the
  // same coordinates whatever the worker count (the product's
  // byte-identical-at-any---jobs contract, at the allocator layer).
  auto script = [] {
    PartitionAllocator a(Mesh2D(33, 16));
    std::vector<Rect> placed;
    std::vector<PartitionId> live;
    Rng rng(7);
    for (int step = 0; step < 200; ++step) {
      if (!live.empty() && rng.uniform() < 0.35) {
        const std::size_t i = rng.below(live.size());
        a.release(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        const auto w = static_cast<std::int32_t>(rng.range(1, 12));
        const auto h = static_cast<std::int32_t>(rng.range(1, 8));
        if (const auto p = a.allocate(w, h)) {
          placed.push_back(a.rect_of(*p));
          live.push_back(*p);
        }
      }
    }
    return placed;
  };
  const std::vector<Rect> reference = script();
  EXPECT_FALSE(reference.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::vector<Rect>> replica(4);
    parallel_for(replica.size(), static_cast<int>(workers),
                 [&](std::size_t i) { replica[i] = script(); });
    for (const auto& r : replica) EXPECT_EQ(r, reference);
  }
}

// Test-local oracle: the allocator as a plain occupancy grid, a
// cell-by-cell first-fit scan at every row-major origin, and the
// histogram-method largest free rectangle recomputed on every query.
class ReferenceAllocator {
 public:
  ReferenceAllocator(std::int32_t w, std::int32_t h)
      : W_(w), H_(h), busy_(static_cast<std::size_t>(w * h), false) {}

  std::optional<PartitionId> allocate(std::int32_t w, std::int32_t h) {
    std::optional<Rect> r = first_fit(w, h);
    if (!r && w != h) r = first_fit(h, w);
    if (!r) return std::nullopt;
    mark(*r, true);
    rects_.push_back(*r);
    return static_cast<PartitionId>(rects_.size() - 1);
  }
  std::optional<PartitionId> allocate_nodes(std::int32_t nodes) {
    for (const auto& [w, h] : candidate_shapes(nodes))
      if (auto id = allocate(w, h)) return id;
    return std::nullopt;
  }
  void release(PartitionId id) {
    mark(rects_[static_cast<std::size_t>(id)], false);
  }
  const Rect& rect_of(PartitionId id) const {
    return rects_[static_cast<std::size_t>(id)];
  }
  std::int32_t nodes_busy() const {
    return static_cast<std::int32_t>(
        std::count(busy_.begin(), busy_.end(), true));
  }
  std::int32_t largest_free_rectangle() const {
    std::vector<std::int32_t> height(static_cast<std::size_t>(W_), 0);
    std::int32_t best = 0;
    for (std::int32_t y = 0; y < H_; ++y) {
      for (std::int32_t x = 0; x < W_; ++x) {
        auto& hx = height[static_cast<std::size_t>(x)];
        hx = cell(x, y) ? 0 : hx + 1;
      }
      std::vector<std::int32_t> stack;
      for (std::int32_t x = 0; x <= W_; ++x) {
        const std::int32_t hcur =
            x < W_ ? height[static_cast<std::size_t>(x)] : 0;
        while (!stack.empty() &&
               height[static_cast<std::size_t>(stack.back())] > hcur) {
          const std::int32_t top = stack.back();
          stack.pop_back();
          const std::int32_t width = stack.empty() ? x : x - stack.back() - 1;
          best = std::max(best, height[static_cast<std::size_t>(top)] * width);
        }
        if (x < W_) stack.push_back(x);
      }
    }
    return best;
  }
  double fragmentation() const {
    const std::int32_t free_nodes = W_ * H_ - nodes_busy();
    if (free_nodes == 0) return 0.0;
    return 1.0 - static_cast<double>(largest_free_rectangle()) / free_nodes;
  }

 private:
  std::vector<bool>::reference cell(std::int32_t x, std::int32_t y) {
    return busy_[static_cast<std::size_t>(y * W_ + x)];
  }
  bool cell(std::int32_t x, std::int32_t y) const {
    return busy_[static_cast<std::size_t>(y * W_ + x)];
  }
  std::optional<Rect> first_fit(std::int32_t w, std::int32_t h) const {
    for (std::int32_t y = 0; y + h <= H_; ++y)
      for (std::int32_t x = 0; x + w <= W_; ++x) {
        bool free = true;
        for (std::int32_t j = y; j < y + h && free; ++j)
          for (std::int32_t i = x; i < x + w && free; ++i)
            free = !cell(i, j);
        if (free) return Rect{x, y, w, h};
      }
    return std::nullopt;
  }
  void mark(const Rect& r, bool value) {
    for (std::int32_t j = r.y; j < r.y + r.h; ++j)
      for (std::int32_t i = r.x; i < r.x + r.w; ++i) cell(i, j) = value;
  }

  std::int32_t W_, H_;
  std::vector<bool> busy_;
  std::vector<Rect> rects_;
};

TEST(Partition, MatchesBruteForceReferenceOnRandomTraffic) {
  // Seeded allocate / allocate_nodes / release traffic, shapes up to one
  // past the mesh in each dimension; after every operation the allocator
  // must agree exactly with the oracle on the placement, the id and
  // every occupancy metric.
  const std::pair<std::int32_t, std::int32_t> meshes[] = {
      {33, 16}, {8, 1}, {1, 8}, {7, 5}};
  for (const auto& [W, H] : meshes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << W << "x" << H << " seed " << seed);
      PartitionAllocator a(Mesh2D(W, H));
      ReferenceAllocator ref(W, H);
      Rng rng(seed);
      std::vector<PartitionId> live;
      for (int step = 0; step < 600; ++step) {
        const std::uint64_t kind = rng.below(10);
        if (kind < 4 && !live.empty()) {
          const std::size_t i = rng.below(live.size());
          a.release(live[i]);
          ref.release(live[i]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          std::optional<PartitionId> got, want;
          if (kind < 7) {
            const auto w = static_cast<std::int32_t>(rng.range(1, W + 1));
            const auto h = static_cast<std::int32_t>(rng.range(1, H + 1));
            got = a.allocate(w, h);
            want = ref.allocate(w, h);
          } else {
            const auto n = static_cast<std::int32_t>(rng.range(1, W * H + 1));
            got = a.allocate_nodes(n);
            want = ref.allocate_nodes(n);
          }
          ASSERT_EQ(got, want) << "step " << step;
          if (got) {
            ASSERT_EQ(a.rect_of(*got), ref.rect_of(*want)) << "step " << step;
            live.push_back(*got);
          }
        }
        ASSERT_EQ(a.nodes_busy(), ref.nodes_busy()) << "step " << step;
        ASSERT_EQ(a.largest_free_rectangle(), ref.largest_free_rectangle())
            << "step " << step;
        ASSERT_EQ(a.fragmentation(), ref.fragmentation()) << "step " << step;
      }
    }
  }
}

// ---------------------------------------------------------- scheduler --
//
// The one job scheduler (PlatformSimulator) with failures and
// checkpoints off, on node-count requests: the testbed day of A6.

PlatformJob mk_job(const char* name, std::int32_t nodes, double runtime_min,
                   double submit_min, double estimate_min = 0) {
  PlatformJob j;
  j.name = name;
  j.width = nodes;  // nodes x 1, reshaped by allocate_nodes at dispatch
  j.any_shape = true;
  j.work = Time::sec(runtime_min * 60);
  j.estimate = Time::sec((estimate_min > 0 ? estimate_min : runtime_min) * 60);
  j.submit = Time::sec(submit_min * 60);
  return j;
}

PlatformResult run_day(Mesh2D mesh, SchedulePolicy policy,
                       std::vector<PlatformJob> jobs) {
  PlatformConfig cfg;
  cfg.policy = policy;
  cfg.node_mtbf = Time::zero();  // no fault trace, no checkpoints
  PlatformSimulator sim(mesh, cfg);
  sim.submit(std::move(jobs));
  return sim.run();
}

TEST(Scheduler, SingleJobRunsImmediately) {
  const PlatformResult r =
      run_day(Mesh2D(8, 8), SchedulePolicy::FCFS, {mk_job("a", 16, 30, 0)});
  EXPECT_EQ(r.makespan, Time::sec(30 * 60));
  EXPECT_EQ(r.wait_minutes.max(), 0.0);
  EXPECT_NEAR(r.utilization, 16.0 / 64.0, 1e-12);
}

TEST(Scheduler, FcfsQueuesWhenFull) {
  // big2 starts the instant big1 frees the machine.
  const PlatformResult r =
      run_day(Mesh2D(4, 4), SchedulePolicy::FCFS,
              {mk_job("big1", 16, 60, 0), mk_job("big2", 16, 60, 1)});
  EXPECT_EQ(r.wait_minutes.max(), 59.0);
  EXPECT_EQ(r.makespan, Time::sec(120 * 60));
}

TEST(Scheduler, FcfsHeadOfLineBlocksSmallJobs) {
  // big1 leaves room for tiny, but big2 heads the queue: under FCFS tiny
  // waits behind it, starting only when big2 has run (120 - 2 min).
  const PlatformResult r = run_day(
      Mesh2D(4, 4), SchedulePolicy::FCFS,
      {mk_job("big1", 12, 60, 0), mk_job("big2", 16, 60, 1),
       mk_job("tiny", 1, 5, 2)});
  EXPECT_EQ(r.wait_minutes.max(), 118.0);
  EXPECT_EQ(r.backfilled, 0);
  EXPECT_EQ(r.makespan, Time::sec(125 * 60));
}

TEST(Scheduler, EasyBackfillLetsTinyJobsThrough) {
  // tiny fits beside big1 and ends well before big1 frees the machine.
  const PlatformResult r = run_day(
      Mesh2D(4, 4), SchedulePolicy::EasyBackfill,
      {mk_job("big1", 12, 60, 0), mk_job("big2", 16, 60, 1),
       mk_job("tiny", 1, 5, 2)});
  EXPECT_EQ(r.backfilled, 1);
  EXPECT_EQ(r.wait_minutes.max(), 59.0);  // big2 only; tiny jumped
  EXPECT_EQ(r.makespan, Time::sec(120 * 60));
}

TEST(Scheduler, BackfillNeverDelaysReservedHead) {
  // long-tiny fits beside big1, but its estimate runs past the head's
  // reserved start (big1's 60-minute estimate): it must NOT backfill.
  const PlatformResult r = run_day(
      Mesh2D(4, 4), SchedulePolicy::EasyBackfill,
      {mk_job("big1", 12, 60, 0), mk_job("big2", 16, 60, 1),
       mk_job("long-tiny", 1, 30, 2, /*estimate_min=*/120)});
  EXPECT_EQ(r.backfilled, 0);
  EXPECT_EQ(r.wait_minutes.max(), 118.0);  // started after big2
  EXPECT_EQ(r.makespan, Time::sec(150 * 60));
}

TEST(Scheduler, AllJobsCompleteUnderBothPolicies) {
  for (const auto policy :
       {SchedulePolicy::FCFS, SchedulePolicy::EasyBackfill}) {
    const std::vector<PlatformJob> day = consortium_workload(80, 528, 7);
    double work_node_seconds = 0.0;
    for (const PlatformJob& j : day)
      work_node_seconds += j.work.as_sec() * j.nodes();
    const PlatformResult r = run_day(Mesh2D(33, 16), policy, day);
    EXPECT_EQ(r.jobs, 80);
    EXPECT_EQ(r.wait_minutes.count(), 80u);
    EXPECT_GE(r.wait_minutes.min(), 0.0);
    // Each job ran exactly its work once: nothing else was occupied.
    EXPECT_EQ(r.rollbacks, 0);
    EXPECT_EQ(r.ckpts_committed, 0);
    EXPECT_EQ(r.useful_node_seconds, r.busy_node_seconds);
    EXPECT_NEAR(r.useful_node_seconds, work_node_seconds,
                1e-9 * work_node_seconds);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
  }
}

TEST(Scheduler, BackfillImprovesWaitAndUtilization) {
  const auto day = consortium_workload(120, 528, 11);
  const PlatformResult fcfs =
      run_day(Mesh2D(33, 16), SchedulePolicy::FCFS, day);
  const PlatformResult easy =
      run_day(Mesh2D(33, 16), SchedulePolicy::EasyBackfill, day);
  EXPECT_GT(easy.backfilled, 0);
  // The classic result: backfill cuts mean wait substantially.
  EXPECT_LT(easy.wait_minutes.mean(), fcfs.wait_minutes.mean());
  EXPECT_GE(easy.utilization, fcfs.utilization * 0.99);
}

TEST(Scheduler, WorkloadGeneratorIsDeterministicAndBounded) {
  const auto a = consortium_workload(50, 528, 9);
  const auto b = consortium_workload(50, 528, 9);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes(), b[i].nodes());
    EXPECT_EQ(a[i].work, b[i].work);
    EXPECT_TRUE(a[i].any_shape);
    EXPECT_GE(a[i].nodes(), 1);
    EXPECT_LE(a[i].nodes(), 528);
    EXPECT_GE(a[i].estimate, a[i].work);
  }
}

TEST(Scheduler, RejectsOversizedJob) {
  PlatformSimulator sim(Mesh2D(4, 4), PlatformConfig{});
  EXPECT_THROW(sim.submit({mk_job("too-big", 17, 10, 0)}), ContractError);
  // 17 is prime: no shape of it fits even a 17-node 4 x 5 mesh.
  PlatformSimulator prime(Mesh2D(4, 5), PlatformConfig{});
  EXPECT_THROW(prime.submit({mk_job("prime", 17, 10, 0)}), ContractError);
}

TEST(Scheduler, ConsortiumDayMatchesBatchPin) {
  // The consortium day as the retired batch simulator scheduled it (node
  // counts shaped by allocate_nodes at dispatch): makespan, backfills,
  // the worst wait and the fragmentation samples, exactly. A scheduler
  // that fixes each job's shape at submit instead moves every row.
  struct Pin {
    SchedulePolicy policy;
    std::uint64_t seed;
    std::uint64_t makespan_ps;
    std::int64_t backfilled;
    double wait_max_min;
    double frag_mean;
  };
  const Pin pins[] = {
      {SchedulePolicy::FCFS, 3, 197165052020653248u, 0, 2209.9034983049346,
       0.25831473568736668},
      {SchedulePolicy::FCFS, 17, 164501557209637549u, 0, 1763.5801687958854,
       0.34983312249469345},
      {SchedulePolicy::FCFS, 29, 128264783181885105u, 0, 1126.3677446346628,
       0.36095285931445337},
      {SchedulePolicy::EasyBackfill, 3, 176051436453844620u, 116,
       1858.0099055247911, 0.32437135808575057},
      {SchedulePolicy::EasyBackfill, 17, 153240514849619993u, 107,
       1575.8961294622595, 0.3751548460384494},
      {SchedulePolicy::EasyBackfill, 29, 126180710467206132u, 108,
       1079.5005022707808, 0.33407455313891837},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(testing::Message()
                 << policy_name(p.policy) << " seed " << p.seed);
    const PlatformResult r = run_day(Mesh2D(33, 16), p.policy,
                                     consortium_workload(150, 528, p.seed));
    EXPECT_EQ(r.makespan.picoseconds(), p.makespan_ps);
    EXPECT_EQ(r.backfilled, p.backfilled);
    EXPECT_EQ(r.wait_minutes.count(), 150u);
    EXPECT_EQ(r.wait_minutes.max(), p.wait_max_min);
    EXPECT_EQ(r.frag_samples.count(), 300u);
    EXPECT_EQ(r.frag_samples.mean(), p.frag_mean);
  }
}

}  // namespace
}  // namespace hpccsim::sched
