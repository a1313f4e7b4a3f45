// Tests for the CFS parallel-file-system model: striping, per-disk
// serialization, scaling with disk count, interaction with the mesh,
// and determinism.
#include <gtest/gtest.h>

#include "io/cfs.hpp"
#include "proc/machine.hpp"

namespace hpccsim::io {
namespace {

using sim::Task;
using sim::Time;

proc::MachineConfig small_machine() {
  return proc::touchstone_delta().with_nodes(16);  // 4x4 mesh
}

Time timed_write(nx::NxMachine& machine, Cfs& fs, int rank, Bytes bytes,
                 std::int64_t offset = 0) {
  Time done;
  std::vector<nx::NxMachine::Program> progs(
      static_cast<std::size_t>(machine.nodes()),
      [](nx::NxContext&) -> Task<> { co_return; });
  progs[static_cast<std::size_t>(rank)] =
      [&fs, bytes, offset, &done](nx::NxContext& ctx) -> Task<> {
    const Time t0 = ctx.now();
    co_await fs.write(ctx, offset, bytes);
    done = ctx.now() - t0;
  };
  machine.run([&](nx::NxContext& c) { return progs[c.rank()](c); });
  return done;
}

TEST(Cfs, DefaultIoNodesAreEastEdge) {
  nx::NxMachine machine(small_machine());
  Cfs fs(machine);
  EXPECT_EQ(fs.disk_count(), 4);  // 4 rows -> 4 edge nodes
  EXPECT_NEAR(fs.aggregate_disk_bw().bytes_per_sec(), 4 * 1.5e6, 1.0);
}

TEST(Cfs, SingleChunkWriteCostsSeekPlusTransfer) {
  nx::NxMachine machine(small_machine());
  CfsConfig cfg;
  cfg.io_nodes = {3};
  Cfs fs(machine, cfg);
  const Bytes chunk = 64 * KiB;
  const Time t = timed_write(machine, fs, 0, chunk);
  // Lower bound: seek + chunk / disk_bw; upper: + a few ms of transit.
  const double floor_s = 0.016 + static_cast<double>(chunk) / 1.5e6;
  EXPECT_GT(t.as_sec(), floor_s);
  EXPECT_LT(t.as_sec(), floor_s + 0.05);
  EXPECT_EQ(fs.stats().bytes_written, chunk);
  EXPECT_EQ(fs.stats().chunks, 1u);
}

TEST(Cfs, StripingUsesAllDisksRoundRobin) {
  nx::NxMachine machine(small_machine());
  Cfs fs(machine);  // 4 disks
  // 8 stripes -> 2 chunks per disk.
  timed_write(machine, fs, 5, 8 * 64 * KiB);
  EXPECT_EQ(fs.stats().chunks, 8u);
  // Striped across 4 disks, the write runs ~4x faster than one disk
  // could stream it.
  const double one_disk_s = 8.0 * 64 * 1024 / 1.5e6 + 8 * 0.016;
  EXPECT_GT(fs.stats().disk_busy.as_sec(), 0.0);
  EXPECT_LT(fs.stats().disk_busy.as_sec(), one_disk_s + 0.001);
}

TEST(Cfs, MoreDisksFinishFaster) {
  auto run_with_disks = [](std::vector<int> io_nodes) {
    nx::NxMachine machine(small_machine());
    CfsConfig cfg;
    cfg.io_nodes = std::move(io_nodes);
    Cfs fs(machine, cfg);
    return timed_write(machine, fs, 0, 2 * MiB);
  };
  const Time one = run_with_disks({3});
  const Time four = run_with_disks({3, 7, 11, 15});
  EXPECT_LT(four.as_sec(), one.as_sec() * 0.5);
}

TEST(Cfs, UnalignedOffsetsSplitAtStripeBoundaries) {
  nx::NxMachine machine(small_machine());
  Cfs fs(machine);
  // Start mid-stripe: 100 KiB at offset 10 KiB splits at the 64 KiB
  // boundary into 54 KiB + 46 KiB.
  timed_write(machine, fs, 0, 100 * KiB, /*offset=*/10 * 1024);
  EXPECT_EQ(fs.stats().chunks, 2u);
  EXPECT_EQ(fs.stats().bytes_written, 100 * KiB);
}

TEST(Cfs, ReadsMoveDataBackAndCostSimilar) {
  nx::NxMachine machine(small_machine());
  Cfs fs(machine);
  Time wt, rt;
  std::vector<nx::NxMachine::Program> progs(
      16, [](nx::NxContext&) -> Task<> { co_return; });
  progs[0] = [&](nx::NxContext& ctx) -> Task<> {
    Time t0 = ctx.now();
    co_await fs.write(ctx, 0, 1 * MiB);
    wt = ctx.now() - t0;
    t0 = ctx.now();
    co_await fs.read(ctx, 0, 1 * MiB);
    rt = ctx.now() - t0;
  };
  machine.run([&](nx::NxContext& c) { return progs[c.rank()](c); });
  EXPECT_EQ(fs.stats().bytes_read, 1 * MiB);
  // Same disk work either direction; within 50%.
  EXPECT_NEAR(rt.as_sec(), wt.as_sec(), wt.as_sec() * 0.5);
}

TEST(Cfs, ConcurrentClientsShareDisks) {
  // All 12 non-IO nodes checkpoint 512 KiB each; aggregate time is
  // bounded below by total bytes / aggregate disk bandwidth.
  nx::NxMachine machine(small_machine());
  Cfs fs(machine);
  const Bytes each = 512 * KiB;
  Time makespan;
  std::vector<nx::NxMachine::Program> progs;
  for (int r = 0; r < 16; ++r) {
    progs.push_back([&fs, each, r, &makespan](nx::NxContext& ctx) -> Task<> {
      if (ctx.rank() % 4 == 3) co_return;  // IO nodes idle
      co_await fs.write(ctx, static_cast<std::int64_t>(ctx.rank()) * each,
                        each);
      makespan = std::max(makespan, ctx.now());
      (void)r;
    });
  }
  machine.run([&](nx::NxContext& c) { return progs[c.rank()](c); });
  const double total_bytes = 12.0 * static_cast<double>(each);
  const double floor_s = total_bytes / fs.aggregate_disk_bw().bytes_per_sec();
  EXPECT_GT(makespan.as_sec(), floor_s * 0.9);
  EXPECT_EQ(fs.stats().bytes_written, 12 * each);
}

TEST(Cfs, DeterministicAcrossRuns) {
  auto once = [] {
    nx::NxMachine machine(small_machine());
    Cfs fs(machine);
    return timed_write(machine, fs, 2, 3 * MiB + 12345).picoseconds();
  };
  EXPECT_EQ(once(), once());
}

TEST(Cfs, ValidatesConfig) {
  nx::NxMachine machine(small_machine());
  CfsConfig bad;
  bad.io_nodes = {99};
  EXPECT_THROW(Cfs(machine, bad), ContractError);
  CfsConfig zero;
  zero.stripe = 0;
  EXPECT_THROW(Cfs(machine, zero), ContractError);
}

}  // namespace
}  // namespace hpccsim::io

namespace hpccsim::io {
namespace {

TEST(CfsMore, InterleavedReadersAndWriters) {
  nx::NxMachine machine(small_machine());
  Cfs fs(machine);
  std::vector<nx::NxMachine::Program> progs(
      16, [](nx::NxContext&) -> Task<> { co_return; });
  progs[0] = [&fs](nx::NxContext& ctx) -> Task<> {
    co_await fs.write(ctx, 0, 256 * KiB);
    co_await fs.read(ctx, 0, 256 * KiB);
  };
  progs[5] = [&fs](nx::NxContext& ctx) -> Task<> {
    co_await fs.read(ctx, 1 * MiB, 128 * KiB);
    co_await fs.write(ctx, 2 * MiB, 128 * KiB);
  };
  machine.run([&](nx::NxContext& c) { return progs[c.rank()](c); });
  EXPECT_EQ(fs.stats().bytes_written, 256 * KiB + 128 * KiB);
  EXPECT_EQ(fs.stats().bytes_read, 256 * KiB + 128 * KiB);
  EXPECT_GT(fs.stats().disk_busy, sim::Time::zero());
}

TEST(CfsMore, EstimateWriteTimeTracksGeometry) {
  nx::NxMachine machine(small_machine());
  Cfs fs(machine);
  // Closed form: busiest disk's seeks + its share of the streamed bytes.
  const Bytes total = 4 * MiB;
  const Time est = fs.estimate_write_time(total);
  EXPECT_GT(est, Time::zero());
  // Doubling the data at least doubles neither-nothing: estimate is
  // monotone and roughly linear once seeks amortize.
  const Time est2 = fs.estimate_write_time(2 * total);
  EXPECT_GT(est2, est);
  EXPECT_LT(est2.as_sec(), est.as_sec() * 2.5);
  // And the estimate brackets an actual single-writer simulation to
  // within the mesh/ack costs it deliberately ignores.
  std::vector<nx::NxMachine::Program> progs(
      16, [](nx::NxContext&) -> Task<> { co_return; });
  progs[0] = [&fs, total](nx::NxContext& ctx) -> Task<> {
    co_await fs.write(ctx, 0, total);
  };
  const Time actual =
      machine.run([&](nx::NxContext& c) { return progs[c.rank()](c); });
  EXPECT_GT(actual.as_sec(), est.as_sec() * 0.5);
  EXPECT_LT(actual.as_sec(), est.as_sec() * 2.0);
}

TEST(CfsMore, ZeroByteOperationRejected) {
  nx::NxMachine machine(small_machine());
  Cfs fs(machine);
  std::vector<nx::NxMachine::Program> progs(
      16, [](nx::NxContext&) -> Task<> { co_return; });
  progs[0] = [&fs](nx::NxContext& ctx) -> Task<> {
    co_await fs.write(ctx, 0, 0);
  };
  EXPECT_THROW(
      machine.run([&](nx::NxContext& c) { return progs[c.rank()](c); }),
      ContractError);
}

}  // namespace
}  // namespace hpccsim::io
