// Tests for the observability layer: registry/histogram semantics, the
// Chrome trace writer, the BenchMetrics schema, and the determinism
// contract — counter totals must be byte-identical at any --jobs value,
// and golden totals for pinned scenarios must never drift.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "io/cfs.hpp"
#include "linalg/distlu.hpp"
#include "linalg/distqr.hpp"
#include "nx/collectives.hpp"
#include "nx/machine_runtime.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/machine.hpp"
#include "util/parallel.hpp"

namespace {

using namespace hpccsim;

TEST(Registry, CounterAddSetAndValue) {
  obs::Registry reg;
  reg.counter("a.b").add();
  reg.counter("a.b").add(4);
  EXPECT_EQ(reg.value("a.b"), 5);
  reg.counter("a.b").set(7);
  EXPECT_EQ(reg.value("a.b"), 7);
  EXPECT_EQ(reg.value("missing"), 0);
  EXPECT_FALSE(reg.empty());
}

TEST(Registry, HandlesStayValidAcrossInserts) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("hot.path");
  for (int i = 0; i < 100; ++i)
    reg.counter("other." + std::to_string(i)).add();
  c.add(42);
  EXPECT_EQ(reg.value("hot.path"), 42);
}

TEST(Registry, MergeAddsCountersSumsGaugesMergesHistograms) {
  obs::Registry a, b;
  a.counter("n").set(3);
  b.counter("n").set(4);
  a.set_gauge("g", 1.5);
  b.set_gauge("g", 2.5);
  a.histogram("h").record(10);
  b.histogram("h").record(30);
  a.merge(b);
  EXPECT_EQ(a.value("n"), 7);
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.histogram("h").sum(), 40);
  const std::string json = a.json();
  EXPECT_NE(json.find("\"g\":4"), std::string::npos) << json;
}

TEST(Registry, AsciiAndJsonAreSortedByName) {
  obs::Registry reg;
  reg.counter("z.last").set(1);
  reg.counter("a.first").set(2);
  reg.counter("m.mid").set(3);
  const std::string ascii = reg.ascii();
  EXPECT_LT(ascii.find("a.first"), ascii.find("m.mid"));
  EXPECT_LT(ascii.find("m.mid"), ascii.find("z.last"));
  const std::string json = reg.json();
  EXPECT_LT(json.find("a.first"), json.find("m.mid"));
  EXPECT_LT(json.find("m.mid"), json.find("z.last"));
}

TEST(Histogram, BasicStatsAndQuantiles) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
  // Log2 buckets: quantiles are approximate but must be ordered and
  // inside [min, max].
  const double p50 = h.quantile(0.5);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(Histogram, ZeroAndSingleSample) {
  obs::Histogram h;
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  h.record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  h.record(1 << 20);
  EXPECT_EQ(h.max(), 1 << 20);
}

TEST(TraceWriter, EmitsChromeTraceEventJson) {
  obs::TraceWriter tw;
  tw.set_track_name(0, "rank 0");
  tw.complete(0, "msg->1 t5", "msg", sim::Time::us(10), sim::Time::us(30));
  tw.instant(0, "crash", "fault", sim::Time::us(50));
  EXPECT_EQ(tw.event_count(), 2u);  // metadata events not counted

  std::ostringstream os;
  tw.write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(out.find("thread_name"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":20"), std::string::npos);  // us
}

TEST(BenchMetrics, SchemaFieldsAndOrdering) {
  obs::BenchMetrics bm("unit_test");
  bm.config("machine", "delta");
  bm.config("n", std::int64_t{25000});
  bm.metric("gflops", 12.9);
  bm.add_sim_time(sim::Time::sec(2.0));
  bm.add_sim_time(sim::Time::sec(1.5));
  const std::string json = bm.json();
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"machine\":\"delta\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":25000"), std::string::npos);
  EXPECT_NE(json.find("\"sim_time_s\":3.5"), std::string::npos);
  EXPECT_NE(json.find("\"wall_time_s\":"), std::string::npos);
  // Insertion order within config.
  EXPECT_LT(json.find("\"machine\""), json.find("\"n\""));
  // Counters attach only when requested; ditto the v2 threads field.
  EXPECT_EQ(json.find("\"counters\""), std::string::npos);
  EXPECT_EQ(json.find("\"threads\""), std::string::npos);

  bm.set_threads(4);
  const std::string threaded = bm.json();
  EXPECT_NE(threaded.find("\"threads\":4"), std::string::npos);
  // Placement: after metrics, before sim_time_s.
  EXPECT_LT(threaded.find("\"gflops\""), threaded.find("\"threads\""));
  EXPECT_LT(threaded.find("\"threads\""), threaded.find("\"sim_time_s\""));
}

TEST(BenchMetrics, WriteFileEmptyPathIsNoop) {
  obs::BenchMetrics bm("unit_test");
  EXPECT_TRUE(bm.write_file(""));
}

// --- Determinism: the property the whole subsystem is built on. ------

obs::Registry lu_counters(std::int64_t n,
                          linalg::LuResult* result = nullptr) {
  const proc::MachineConfig mc = proc::touchstone_delta().with_nodes(16);
  nx::NxMachine machine(mc);
  linalg::LuConfig cfg = linalg::lu_config_for(machine, n, 32);
  const linalg::LuResult r = linalg::run_distributed_lu(machine, cfg);
  if (result) *result = r;
  return machine.snapshot_counters();
}

TEST(Determinism, CounterTotalsIdenticalAcrossJobs) {
  const std::vector<std::int64_t> orders{128, 192, 256, 320};
  auto sweep = [&](int jobs) {
    std::vector<obs::Registry> regs(orders.size());
    parallel_for(orders.size(), jobs,
                 [&](std::size_t i) { regs[i] = lu_counters(orders[i]); });
    obs::Registry total;
    for (const obs::Registry& r : regs) total.merge(r);
    return total.json();
  };
  const std::string serial = sweep(1);
  EXPECT_EQ(serial, sweep(4));
  EXPECT_EQ(serial, sweep(8));
}

TEST(Determinism, GoldenLuCounters) {
  // Exact totals for LU n=256, NB=32 on a 16-node Delta. These are test
  // oracles: any change means the simulation's event stream changed and
  // must be understood (then update the goldens deliberately).
  linalg::LuResult r;
  const obs::Registry reg = lu_counters(256, &r);
  EXPECT_EQ(r.elapsed.picoseconds(), 232829042883);
  EXPECT_EQ(reg.value("nx.sends"), reg.value("nx.recvs"));
  EXPECT_EQ(reg.value("nx.sends"), 4437);
  EXPECT_EQ(reg.value("nx.bytes_sent"), 2443392);
  EXPECT_EQ(reg.value("mesh.messages"), 4437);
  EXPECT_EQ(reg.value("core.engine.events"), 21990);
  EXPECT_EQ(reg.value("core.engine.calls_scheduled"), 4437);
  EXPECT_EQ(reg.value("core.engine.peak_queue_depth"), 16);
  EXPECT_EQ(reg.value("proc.nodes"), 16);
  EXPECT_EQ(reg.value("nx.messages_dropped"), 0);
}

TEST(Determinism, GoldenQrCounters) {
  // Exact totals for modeled QR n=256, NB=32 on the same 16-node Delta,
  // the grid matching its 4 x 4 mesh. QR's schedule ends in the same
  // distributed backward substitution as LU's.
  const proc::MachineConfig mc = proc::touchstone_delta().with_nodes(16);
  nx::NxMachine machine(mc);
  linalg::QrConfig cfg;
  cfg.n = 256;
  cfg.nb = 32;
  cfg.grid = linalg::ProcessGrid{mc.mesh_height, mc.mesh_width};
  cfg.mode = linalg::ExecMode::Modeled;
  const linalg::QrResult r = linalg::run_distributed_qr(machine, cfg);
  const obs::Registry reg = machine.snapshot_counters();
  EXPECT_EQ(r.elapsed.picoseconds(), 287255362740);
  EXPECT_EQ(reg.value("nx.sends"), 13170);
  EXPECT_EQ(reg.value("nx.bytes_sent"), 2439168);
  EXPECT_EQ(reg.value("core.engine.events"), 61812);
  EXPECT_EQ(reg.value("core.engine.calls_scheduled"), 13170);
  EXPECT_EQ(reg.value("core.engine.peak_queue_depth"), 16);
}

TEST(Determinism, GoldenCheckpointedRunCounters) {
  // A small checkpointed run under seeded fault injection: the full
  // fault / checkpoint / CFS counter surface, pinned exactly.
  const proc::MachineConfig mc = proc::touchstone_delta().with_nodes(16);
  nx::NxMachine machine(mc);
  fault::FaultConfig fc;
  fc.seed = 7;
  fc.node_mtbf = sim::Time::sec(4 * 3600.0);
  fc.node_repair = sim::Time::sec(60.0);
  fc.horizon = sim::Time::sec(24 * 3600.0);
  fault::FaultInjector injector(machine, fc);
  io::Cfs cfs(machine);
  fault::CheckpointConfig cc;
  cc.total_work = sim::Time::sec(3600.0);
  cc.interval = sim::Time::sec(300.0);
  cc.bytes_per_node = MiB;
  fault::CheckpointedRun run(machine, injector, &cfs, cc);
  run.execute();

  obs::Registry reg;
  injector.export_counters(reg);
  cfs.export_counters(reg);
  run.export_counters(reg);

  EXPECT_EQ(reg.value("ckpt.checkpoints"), 11);
  EXPECT_EQ(reg.value("ckpt.rollbacks"), 5);
  EXPECT_EQ(reg.value("fault.crashes"), 7);
  EXPECT_EQ(reg.value("cfs.bytes_written"),
            reg.value("ckpt.checkpoints") * 16 * static_cast<std::int64_t>(MiB));
  EXPECT_GT(reg.value("ckpt.useful.ns"), 0);
  // Re-running the identical scenario reproduces every total.
  nx::NxMachine machine2(mc);
  fault::FaultInjector injector2(machine2, fc);
  io::Cfs cfs2(machine2);
  fault::CheckpointedRun run2(machine2, injector2, &cfs2, cc);
  run2.execute();
  obs::Registry reg2;
  injector2.export_counters(reg2);
  cfs2.export_counters(reg2);
  run2.export_counters(reg2);
  EXPECT_EQ(reg.json(), reg2.json());
}

TEST(Trace, CollectiveSpansLandOnRankTracks) {
  const proc::MachineConfig mc = proc::touchstone_delta().with_nodes(8);
  nx::NxMachine machine(mc);
  obs::TraceWriter tw;
  machine.set_trace_writer(&tw);
  machine.run([](nx::NxContext& ctx) -> sim::Task<> {
    nx::Group world = nx::Group::world(ctx);
    co_await nx::barrier(ctx, world);
  });
  EXPECT_GT(tw.event_count(), 0u);
  std::ostringstream os;
  tw.write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"barrier\""), std::string::npos);
  EXPECT_NE(out.find("\"collective\""), std::string::npos);
  EXPECT_NE(out.find("\"rank 0\""), std::string::npos);
}

TEST(Trace, CollectiveLatencyHistogramsRecorded) {
  const proc::MachineConfig mc = proc::touchstone_delta().with_nodes(8);
  nx::NxMachine machine(mc);
  machine.run([](nx::NxContext& ctx) -> sim::Task<> {
    nx::Group world = nx::Group::world(ctx);
    co_await nx::bcast(ctx, world, 0, 4096, {});
  });
  obs::Registry& reg = machine.snapshot_counters();
  const obs::Histogram& h = reg.histogram("nx.collective.bcast.ns");
  EXPECT_EQ(h.count(), 8u);  // one span per rank
  EXPECT_GT(h.sum(), 0);
}

}  // namespace
