// Tests for the fault-injection + checkpoint/restart subsystem:
// pure-trace determinism (any thread), crash recovery mid-epoch and
// mid-collective, rollback/restore to the committed frontier, waste
// accounting invariants, Young/Daly formulas, and the guarantee that a
// zero-fault configuration perturbs nothing.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "fault/stats.hpp"
#include "io/cfs.hpp"
#include "proc/machine.hpp"

namespace hpccsim::fault {
namespace {

using sim::Task;
using sim::Time;
using Kind = FaultEvent::Kind;

proc::MachineConfig small_machine() {
  return proc::touchstone_delta().with_nodes(16);  // 4x4 mesh
}

FaultConfig crashy_config(std::uint64_t seed) {
  FaultConfig fc;
  fc.seed = seed;
  fc.node_mtbf = Time::sec(600.0 * 16);  // machine MTBF 600 s
  fc.node_repair = Time::sec(20.0);
  fc.horizon = Time::sec(20000.0);
  return fc;
}

// Full checkpointed run through the CFS; everything the run produced,
// flattened to integers so runs can be compared exactly.
struct Outcome {
  std::uint64_t elapsed_ps = 0;
  std::uint64_t useful_ps = 0;
  std::uint64_t lost_ps = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  std::uint64_t crashes = 0;
  std::string trace;
  bool balanced = false;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome run_cfs_scenario(std::uint64_t seed) {
  nx::NxMachine machine(small_machine());
  FaultInjector injector(machine, crashy_config(seed));
  io::Cfs cfs(machine);
  CheckpointConfig cc;
  cc.total_work = Time::sec(2000.0);
  cc.interval = Time::sec(300.0);
  cc.bytes_per_node = 1 * MiB;
  CheckpointedRun run(machine, injector, &cfs, cc);
  run.execute();
  const WasteReport& r = run.report();
  return Outcome{r.elapsed.picoseconds(), r.useful.picoseconds(),
                 r.lost.picoseconds(),    r.checkpoints,
                 r.restores,              r.crashes,
                 injector.trace_csv(),    r.balanced()};
}

// A run with hand-placed faults and fixed (non-CFS) checkpoint costs,
// so epoch timing is exactly predictable.
WasteReport run_fixed_scenario(std::vector<FaultEvent> trace) {
  nx::NxMachine machine(small_machine());
  FaultInjector injector(machine, FaultConfig{});  // no generated faults
  injector.set_trace(std::move(trace));
  CheckpointConfig cc;
  cc.total_work = Time::sec(100.0);
  cc.interval = Time::sec(30.0);
  cc.use_cfs = false;
  cc.fixed_checkpoint_cost = Time::sec(5.0);
  cc.fixed_restore_cost = Time::sec(5.0);
  CheckpointedRun run(machine, injector, nullptr, cc);
  run.execute();
  return run.report();
}

// ------------------------------------------------------------ trace --

TEST(FaultTrace, PureFunctionOfSeedAndSorted) {
  const auto mesh = small_machine().mesh();
  const FaultConfig fc = crashy_config(7);
  const auto a = generate_fault_trace(fc, mesh);
  const auto b = generate_fault_trace(fc, mesh);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].when, b[i].when);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].a, b[i].a);
  }
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_LE(a[i - 1].when, a[i].when);
  // Every crash has a strictly later repair for the same node.
  int crashes = 0, repairs = 0;
  for (const auto& ev : a) {
    crashes += ev.kind == Kind::NodeCrash;
    repairs += ev.kind == Kind::NodeRepair;
  }
  EXPECT_EQ(crashes, repairs);
}

TEST(FaultTrace, DifferentSeedsDiffer) {
  const auto mesh = small_machine().mesh();
  const auto a = generate_fault_trace(crashy_config(1), mesh);
  const auto b = generate_fault_trace(crashy_config(2), mesh);
  ASSERT_FALSE(a.empty());
  EXPECT_NE(a.front().when, b.front().when);
}

// FNV-1a over every event's (when ps, kind, node), each fed as eight
// little-endian bytes: moves if any crash or repair moves.
std::uint64_t trace_hash(const std::vector<FaultEvent>& trace) {
  std::uint64_t h = 14695981039346656037ull;
  auto feed = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const FaultEvent& ev : trace) {
    feed(static_cast<std::uint64_t>(ev.when.picoseconds()));
    feed(static_cast<std::uint64_t>(ev.kind));
    feed(static_cast<std::uint64_t>(ev.a));
  }
  return h;
}

TEST(FaultTrace, GoldenNodeTraces) {
  const auto mesh = small_machine().mesh();
  const FaultConfig exp = crashy_config(7);
  FaultConfig weibull = crashy_config(11);
  weibull.dist = Distribution::Weibull;
  const auto e = generate_fault_trace(exp, mesh);
  const auto w = generate_fault_trace(weibull, mesh);
  EXPECT_EQ(e.size(), 78u);
  EXPECT_EQ(trace_hash(e), 0x8bc65812194df690ull);
  EXPECT_EQ(w.size(), 86u);
  EXPECT_EQ(trace_hash(w), 0x58d1adc5a50ec079ull);
}

TEST(FaultTrace, IdenticalFromAnyThread) {
  const auto baseline = run_cfs_scenario(42);
  std::vector<Outcome> out(4);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < out.size(); ++t)
    workers.emplace_back([&out, t] { out[t] = run_cfs_scenario(42); });
  for (auto& w : workers) w.join();
  for (const auto& o : out) EXPECT_EQ(o, baseline);
}

// ------------------------------------------------- checkpointed run --

TEST(CheckpointedRun, NoFaultsRunsAllEpochs) {
  const WasteReport r = run_fixed_scenario({});
  // 100 s of work at 30 s intervals: segments 30/30/30/10, checkpoints
  // after the first three.
  EXPECT_EQ(r.useful, Time::sec(100.0));
  EXPECT_EQ(r.checkpoints, 3u);
  EXPECT_EQ(r.checkpoint, Time::sec(15.0));
  EXPECT_EQ(r.restores, 0u);
  EXPECT_EQ(r.lost, Time::zero());
  EXPECT_EQ(r.crashes, 0u);
  EXPECT_TRUE(r.balanced());
  EXPECT_GT(r.waste_fraction(), 0.0);  // barriers + checkpoints
  EXPECT_LT(r.waste_fraction(), 0.25);
}

TEST(CheckpointedRun, CrashDuringComputeRollsBackToCheckpoint) {
  // Epoch 0 commits around t=35 s; the crash lands mid-epoch-1 compute.
  const WasteReport r = run_fixed_scenario(
      {{Time::sec(45.0), Kind::NodeCrash, 3},
       {Time::sec(50.0), Kind::NodeRepair, 3}});
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_EQ(r.restores, 1u);       // rolled back to epoch 0's image
  EXPECT_EQ(r.aborted_epochs, 1u);
  EXPECT_EQ(r.useful, Time::sec(100.0));  // all work still committed
  EXPECT_EQ(r.checkpoints, 3u);    // epoch 1 re-ran, committed once
  EXPECT_GE(r.lost, Time::sec(5.0));  // the discarded partial epoch
  EXPECT_GT(r.restore, Time::zero());
  EXPECT_GT(r.recovery_wait, Time::zero());
  EXPECT_TRUE(r.balanced());
}

TEST(CheckpointedRun, CrashDuringCollectiveRecovers) {
  // Epoch 0's pre-checkpoint barrier starts at exactly t=30 s; the
  // crash lands inside it, before anything has been committed, so
  // recovery must converge with no checkpoint to restore.
  const WasteReport r = run_fixed_scenario(
      {{Time::sec(30.0) + Time::us(100.0), Kind::NodeCrash, 9},
       {Time::sec(31.0), Kind::NodeRepair, 9}});
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_EQ(r.restores, 0u);  // nothing committed yet
  EXPECT_EQ(r.useful, Time::sec(100.0));
  EXPECT_GE(r.lost, Time::sec(29.0));  // epoch 0 discarded entirely
  EXPECT_TRUE(r.balanced());
}

TEST(CheckpointedRun, BackToBackCrashesStillConverge) {
  // Second crash lands while the machine is recovering from the first.
  const WasteReport r = run_fixed_scenario(
      {{Time::sec(45.0), Kind::NodeCrash, 3},
       {Time::sec(46.0), Kind::NodeCrash, 12},
       {Time::sec(50.0), Kind::NodeRepair, 3},
       {Time::sec(58.0), Kind::NodeRepair, 12}});
  EXPECT_EQ(r.crashes, 2u);
  EXPECT_EQ(r.useful, Time::sec(100.0));
  EXPECT_TRUE(r.balanced());
}

TEST(CheckpointedRun, CfsScenarioDeterministicAndBalanced) {
  const Outcome a = run_cfs_scenario(9);
  const Outcome b = run_cfs_scenario(9);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.balanced);
  EXPECT_GT(a.crashes, 0u) << "scenario should actually exercise faults";
  EXPECT_EQ(a.useful_ps, Time::sec(2000.0).picoseconds());
}

// -------------------------------------------------------- zero fault --

TEST(FaultInjector, ZeroFaultConfigIsNoOp) {
  auto program = [](nx::NxContext& ctx) -> Task<> {
    const int next = (ctx.rank() + 1) % ctx.nodes();
    const int prev = (ctx.rank() + ctx.nodes() - 1) % ctx.nodes();
    co_await ctx.busy(Time::ms(2.0));
    co_await ctx.send(next, 5, 4096);
    (void)co_await ctx.recv(prev, 5);
  };
  nx::NxMachine plain(small_machine());
  const Time t_plain = plain.run(program);

  nx::NxMachine injected(small_machine());
  FaultInjector injector(injected, FaultConfig{});  // everything off
  injector.arm();
  const Time t_injected = injected.run(program);

  EXPECT_TRUE(injector.trace().empty());
  EXPECT_EQ(t_plain, t_injected);
  EXPECT_EQ(plain.engine().events_processed(),
            injected.engine().events_processed());
  EXPECT_EQ(plain.total_stats().bytes_sent,
            injected.total_stats().bytes_sent);
  EXPECT_EQ(injected.messages_dropped(), 0u);
}

// An attached injector keeps the machine on its own engine: the crash
// events and CheckpointedRun's shared state live there, not on the
// sharded engine's band engines.
TEST(ParallelEngine, FaultInjectorKeepsMachineSequential) {
  nx::NxMachine machine(proc::touchstone_delta().with_nodes(64));
  machine.set_threads(4);
  {
    FaultInjector injector(machine, FaultConfig{});
    EXPECT_FALSE(machine.parallel_eligible());
  }
  EXPECT_TRUE(machine.parallel_eligible());
}

TEST(FaultInjector, CrashPurgesQueuedMessages) {
  nx::NxMachine machine(small_machine());
  FaultInjector injector(machine, FaultConfig{});
  injector.set_trace({{Time::ms(10.0), Kind::NodeCrash, 1},
                      {Time::ms(20.0), Kind::NodeRepair, 1}});
  injector.arm();
  machine.run([](nx::NxContext& ctx) -> Task<> {
    // Rank 0 sends a message nobody ever receives; it is queued at
    // rank 1 when the crash wipes that node's memory.
    if (ctx.rank() == 0) co_await ctx.send(1, 3, 256);
  });
  EXPECT_EQ(injector.purged_messages(), 1u);
  EXPECT_EQ(machine.messages_dropped(), 1u);
  EXPECT_EQ(injector.crashes(), 1u);
  EXPECT_EQ(injector.repairs(), 1u);
  EXPECT_TRUE(machine.node_state().up(1));  // repaired
}

// ---------------------------------------------------------- formulas --

TEST(WasteFormulas, YoungAndDaly) {
  const Time c = Time::sec(100.0);
  const Time m = Time::sec(10000.0);
  EXPECT_NEAR(young_interval(c, m).as_sec(), 1414.2, 0.1);
  // Daly's refinement is below Young's sqrt(2CM) at moderate C/M.
  EXPECT_LT(daly_interval(c, m).as_sec(), young_interval(c, m).as_sec());
  EXPECT_GT(daly_interval(c, m).as_sec(), 1000.0);
  // Degenerate regime: checkpointing costs more than 2 MTBFs.
  EXPECT_EQ(daly_interval(Time::sec(300.0), Time::sec(100.0)),
            Time::sec(100.0));
}

TEST(WasteFormulas, ModeledWasteIsUShaped) {
  const Time c = Time::sec(60.0);
  const Time m = Time::sec(2700.0);
  const Time opt = young_interval(c, m);
  const double at_opt = modeled_waste(opt, c, m, c);
  EXPECT_LT(at_opt, modeled_waste(Time::sec(opt.as_sec() / 8.0), c, m, c));
  EXPECT_LT(at_opt, modeled_waste(Time::sec(opt.as_sec() * 8.0), c, m, c));
}

}  // namespace
}  // namespace hpccsim::fault
