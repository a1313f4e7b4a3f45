// Integration tests: cross-module scenarios that exercise the whole
// stack together — multiple algorithms on one machine, tracing during a
// real workload, machine presets driving the solvers, end-to-end
// determinism of full experiments, and the memory model gating problem
// sizes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/distlu.hpp"
#include "linalg/distqr.hpp"
#include "linalg/fft.hpp"
#include "mesh/flit.hpp"
#include "nx/collectives.hpp"
#include "nx/machine_runtime.hpp"
#include "proc/machine.hpp"
#include "sched/platform.hpp"
#include "util/rng.hpp"
#include "wan/consortium.hpp"
#include "wan/flows.hpp"

namespace hpccsim {
namespace {

using linalg::ExecMode;
using linalg::ProcessGrid;
using sim::Task;
using sim::Time;

TEST(Integration, SequentialWorkloadsOnOneMachine) {
  // LU, then QR, then CG on the same NxMachine instance: time
  // accumulates, state does not leak between runs.
  proc::MachineConfig mc = proc::touchstone_delta();
  mc.mesh_width = 2;
  mc.mesh_height = 2;
  nx::NxMachine machine(mc);

  linalg::LuConfig lu = linalg::lu_config_for(machine, 48, 8,
                                              ExecMode::Numeric);
  const auto lu_res = linalg::run_distributed_lu(machine, lu);
  ASSERT_TRUE(lu_res.residual.has_value());
  EXPECT_LT(*lu_res.residual, 50.0);
  const Time after_lu = machine.engine().now();

  linalg::QrConfig qr;
  qr.n = 32;
  qr.nb = 8;
  qr.grid = ProcessGrid{2, 2};
  const auto qr_res = linalg::run_distributed_qr(machine, qr);
  ASSERT_TRUE(qr_res.residual.has_value());
  EXPECT_LT(*qr_res.residual, 50.0);
  EXPECT_GT(machine.engine().now(), after_lu);  // clock kept advancing

  linalg::CgConfig cg;
  cg.grid_n = 16;
  cg.grid = ProcessGrid{2, 2};
  const auto cg_res = linalg::run_distributed_cg(machine, cg);
  EXPECT_TRUE(cg_res.converged);
}

TEST(Integration, TraceCoversWholeLuSchedule) {
  proc::MachineConfig mc = proc::touchstone_delta();
  mc.mesh_width = 2;
  mc.mesh_height = 2;
  nx::NxMachine machine(mc);
  machine.enable_message_trace();
  linalg::LuConfig lu = linalg::lu_config_for(machine, 32, 8,
                                              ExecMode::Modeled);
  const auto res = linalg::run_distributed_lu(machine, lu);
  // Every counted send appears in the trace, with sane fields.
  EXPECT_EQ(machine.message_trace().size(), res.messages);
  for (const auto& r : machine.message_trace()) {
    EXPECT_GE(r.src, 0);
    EXPECT_LT(r.src, 4);
    EXPECT_GE(r.dst, 0);
    EXPECT_LT(r.dst, 4);
    EXPECT_LE(r.depart, r.arrive);
  }
}

TEST(Integration, FullExperimentIsDeterministic) {
  auto run_once = [] {
    nx::NxMachine machine(proc::touchstone_delta().with_nodes(16));
    linalg::LuConfig lu = linalg::lu_config_for(machine, 512, 32);
    const auto r = linalg::run_distributed_lu(machine, lu);
    return std::tuple(r.elapsed, r.messages, r.bytes_moved);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Integration, ModeledLuRespectsMachineGenerations) {
  // The same problem must run fastest on Paragon, slower on the Delta,
  // slowest on the iPSC/860 — at the same node count.
  auto gflops_on = [](const proc::MachineConfig& base) {
    const proc::MachineConfig mc = base.with_nodes(64);
    nx::NxMachine machine(mc);
    linalg::LuConfig lu = linalg::lu_config_for(machine, 4000, 64);
    return linalg::run_distributed_lu(machine, lu).gflops;
  };
  const double gamma = gflops_on(proc::ipsc860());
  const double delta = gflops_on(proc::touchstone_delta());
  const double paragon = gflops_on(proc::paragon());
  EXPECT_LT(gamma, delta);
  EXPECT_LT(delta, paragon);
}

TEST(Integration, LinpackOrderBeyondMemoryStillSimulates) {
  // The simulator can model an order the machine could not hold (useful
  // for what-ifs); the memory model flags it.
  const proc::MachineConfig mc = proc::touchstone_delta().with_nodes(16);
  EXPECT_FALSE(mc.lu_order_fits(25000));
  nx::NxMachine machine(mc);
  linalg::LuConfig lu = linalg::lu_config_for(machine, 5000, 64);
  EXPECT_TRUE(mc.lu_order_fits(4400));
  const auto r = linalg::run_distributed_lu(machine, lu);
  EXPECT_GT(r.gflops, 0.0);
}

TEST(Integration, SchedulerFeedsSimulatedJobDurations) {
  // Close the loop: measure a modeled LU's duration, then schedule a day
  // of such jobs — the job scheduler consumes what the machine layer
  // produces.
  nx::NxMachine machine(proc::touchstone_delta().with_nodes(64));
  linalg::LuConfig lu = linalg::lu_config_for(machine, 2000, 64);
  const Time lu_time = linalg::run_distributed_lu(machine, lu).elapsed;

  sched::PlatformConfig cfg;
  cfg.policy = sched::SchedulePolicy::EasyBackfill;
  cfg.node_mtbf = Time::zero();  // no failures, no checkpoints
  sched::PlatformSimulator sim(mesh::Mesh2D(8, 8), cfg);
  std::vector<sched::PlatformJob> jobs(10);
  for (int i = 0; i < 10; ++i) {
    sched::PlatformJob& j = jobs[static_cast<std::size_t>(i)];
    j.name = "lu" + std::to_string(i);
    j.width = 64;  // a 64-node request, shaped at dispatch
    j.any_shape = true;
    j.work = lu_time;
    j.submit = Time::zero();  // all queued at once
  }
  sim.submit(std::move(jobs));
  const auto res = sim.run();
  // Full-machine jobs run strictly back to back: makespan is exactly
  // ten LU durations and the machine never idles.
  EXPECT_NEAR(res.makespan.as_sec(), 10.0 * lu_time.as_sec(),
              lu_time.as_sec() * 0.01);
  EXPECT_GT(res.utilization, 0.99);
}

TEST(Integration, WanMovesWhatTheMachineProduces) {
  // An n=2000 LU result (2000^2 doubles = 32 MB) shipped to Rice takes
  // minutes on the 1992 network — longer than computing it took.
  nx::NxMachine machine(proc::touchstone_delta());
  linalg::LuConfig lu = linalg::lu_config_for(machine, 2000, 64);
  const Time compute = linalg::run_distributed_lu(machine, lu).elapsed;

  const wan::Wan net = wan::consortium_network();
  const auto xfer = net.transfer(net.site_by_name("Caltech-Delta"),
                                 net.site_by_name("CRPC-Rice"),
                                 2000ull * 2000 * 8);
  ASSERT_TRUE(xfer.has_value());
  EXPECT_GT(xfer->duration, compute);  // the 1992 network is the bottleneck
}

TEST(Integration, CollectivesComposeWithSolvers) {
  // A program that mixes raw collectives with a library solver call
  // path: allreduce a checksum of the CG iteration count.
  nx::NxMachine machine(proc::touchstone_delta().with_nodes(4));
  linalg::CgConfig cg;
  cg.grid_n = 12;
  cg.grid = ProcessGrid{2, 2};
  const auto r = linalg::run_distributed_cg(machine, cg);
  ASSERT_TRUE(r.converged);

  std::vector<double> counts(4);
  machine.run([&counts, iters = r.iterations](nx::NxContext& ctx) -> Task<> {
    nx::Message m =
        co_await nx::allreduce(ctx, nx::Group::world(ctx), nx::ReduceOp::Sum,
                               8, nx::payload_of(double(iters)));
    counts[static_cast<std::size_t>(ctx.rank())] = m.values().at(0);
  });
  for (const double c : counts) EXPECT_EQ(c, 4.0 * r.iterations);
}

// Both sharded engines run their bands on the one process-wide
// WorkerPool (core/barrier.hpp). One process interleaves them: the
// flit network reuses workers an nx run created, a wider nx run grows
// the pool mid-process, and a narrower flit run leaves workers idle.
// Every run must equal its one-thread run exactly.
struct LuOutcome {
  Time elapsed;
  std::string dump;
  std::int64_t shard_runs = 0;
};

LuOutcome modeled_lu(int threads) {
  nx::NxMachine m(proc::touchstone_delta().with_nodes(128));
  m.set_threads(threads);
  const linalg::LuResult r =
      linalg::run_distributed_lu(m, linalg::lu_config_for(m, 512, 32));
  LuOutcome out{r.elapsed, "", 0};
  obs::Registry& reg = m.snapshot_counters();
  out.shard_runs = reg.value("engine.shard.runs");
  // Band partition diagnostics legitimately differ across thread counts.
  std::istringstream in(reg.ascii());
  for (std::string line; std::getline(in, line);)
    if (line.find("engine.shard.") == std::string::npos &&
        line.find("core.engine.peak_queue_depth") == std::string::npos &&
        line.find("core.engine.call_slot_high_water") == std::string::npos)
      out.dump += line + '\n';
  return out;
}

struct FlitOutcome {
  std::vector<std::uint64_t> delivered;
  std::uint64_t link = 0, injected = 0, ejected = 0, cycle = 0;
  std::uint64_t windows = 0;
};

FlitOutcome saturated_flit(int threads) {
  mesh::FlitNetwork net(mesh::Mesh2D(16, 16), mesh::FlitParams{});
  net.set_threads(threads);
  net.set_window(64);  // many bursts, so many pool commands
  Rng rng(14);
  for (int i = 0; i < 1024; ++i) {
    const auto src = static_cast<mesh::NodeId>(i % 256);
    auto dst = static_cast<mesh::NodeId>(rng.below(256));
    if (dst == src) dst = (dst + 1) % 256;
    net.inject(src, dst, 256, 0);
  }
  net.run();
  FlitOutcome out;
  for (const mesh::FlitMessage& m : net.messages())
    out.delivered.push_back(m.delivered_cycle);
  out.link = net.link_flits();
  out.injected = net.injected_flits();
  out.ejected = net.ejected_flits();
  out.cycle = net.cycle();
  out.windows = net.parallel_windows();
  return out;
}

void expect_same_flit(const FlitOutcome& got, const FlitOutcome& want) {
  EXPECT_GT(got.windows, 0u);  // the sharded scheduler really ran
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.link, want.link);
  EXPECT_EQ(got.injected, want.injected);
  EXPECT_EQ(got.ejected, want.ejected);
  EXPECT_EQ(got.cycle, want.cycle);
}

void expect_same_lu(const LuOutcome& got, const LuOutcome& want) {
  EXPECT_EQ(got.shard_runs, 1);  // the sharded engine really ran
  EXPECT_EQ(got.elapsed, want.elapsed);
  EXPECT_EQ(got.dump, want.dump);
}

TEST(Integration, ShardedEnginesShareOneWorkerPool) {
  const LuOutcome lu_oracle = modeled_lu(1);
  const FlitOutcome flit_oracle = saturated_flit(1);
  ASSERT_EQ(lu_oracle.shard_runs, 0);
  ASSERT_EQ(flit_oracle.windows, 0u);

  expect_same_lu(modeled_lu(4), lu_oracle);
  expect_same_flit(saturated_flit(4), flit_oracle);
  expect_same_lu(modeled_lu(8), lu_oracle);         // grows the pool
  expect_same_flit(saturated_flit(2), flit_oracle);  // idle workers
}

}  // namespace
}  // namespace hpccsim
