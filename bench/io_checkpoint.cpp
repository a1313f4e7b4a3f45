// Exhibit A9 (I/O extension): checkpointing the LINPACK matrix through
// the Concurrent File System.
//
// The order-25,000 matrix is 5 GB spread over 528 nodes; CFS stripes it
// across I/O-node disks at ~1.5 MB/s each. This harness measures the
// checkpoint (every node writes its local partition) as a function of
// disk count — the era's canonical demonstration that compute scaled
// faster than I/O (the original "I/O wall").
#include <algorithm>
#include <cstdio>

#include "harness.hpp"
#include "io/cfs.hpp"
#include "proc/machine.hpp"

namespace {

using namespace hpccsim;
using sim::Task;
using sim::Time;

Time checkpoint_time(int disks, std::int64_t n, obs::Registry& reg) {
  const proc::MachineConfig mc = proc::touchstone_delta();
  nx::NxMachine machine(mc);
  io::CfsConfig cfg;
  // Disks spread down the east columns, `disks` of them.
  for (int i = 0; i < disks; ++i) {
    const int row = i % mc.mesh_height;
    const int col = mc.mesh_width - 1 - i / mc.mesh_height;
    cfg.io_nodes.push_back(row * mc.mesh_width + col);
  }
  io::Cfs fs(machine, cfg);

  const Bytes total = static_cast<Bytes>(n) * static_cast<Bytes>(n) * 8;
  const Bytes per_node = total / static_cast<Bytes>(machine.nodes());
  Time makespan;
  machine.run([&fs, per_node, &makespan](nx::NxContext& ctx) -> Task<> {
    co_await fs.write(
        ctx, static_cast<std::int64_t>(ctx.rank()) *
                 static_cast<std::int64_t>(per_node),
        per_node);
    makespan = std::max(makespan, ctx.now());
  });
  fs.export_counters(reg);
  return makespan;
}

int exhibit(const ArgParser& args, bench::Harness& h) {
  const std::int64_t n = args.integer("n");
  const double gb =
      static_cast<double>(n) * static_cast<double>(n) * 8.0 / 1e9;
  std::printf("== A9: checkpointing the n=%lld matrix (%.1f GB) via CFS ==\n",
              static_cast<long long>(n), gb);
  obs::BenchMetrics& bm = h.metrics;
  bm.config("n", n);
  obs::Registry& totals = h.counters;
  double best_mbs = 0.0;

  Table t({"disks", "checkpoint time", "aggregate MB/s",
           "vs factorization (813 s)"});
  for (const int disks : {8, 16, 32, 64}) {
    obs::Registry reg;
    const Time tchk = checkpoint_time(disks, n, reg);
    bm.add_sim_time(tchk);
    totals.merge(reg);
    best_mbs = std::max(best_mbs, gb * 1000.0 / tchk.as_sec());
    t.add_row({Table::integer(disks), tchk.str(),
               Table::num(gb * 1000.0 / tchk.as_sec(), 1),
               Table::num(tchk.as_sec() / 813.0 * 100.0, 0) + "%"});
  }
  h.print(t);
  std::printf("expected: even at 64 disks the checkpoint costs a large "
              "fraction of the factorization it protects — the I/O wall "
              "that drove the parallel-I/O research the ASTA component "
              "funded\n");

  bm.metric("bytes_written", totals.value("cfs.bytes_written"));
  bm.metric("aggregate_mbs_best", best_mbs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("io_checkpoint", "CFS checkpoint of the LINPACK matrix");
  h.args.add_option("n", "matrix order to checkpoint", "25000");
  return h.run(argc, argv, exhibit);
}
