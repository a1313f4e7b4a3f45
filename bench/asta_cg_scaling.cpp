// Exhibit A4 (ASTA extension): scalable-algorithm behaviour of CG.
//
// The ASTA program component funds "scalable parallel algorithms"; CG on
// a stencil is its canonical citizen and the communication opposite of
// LINPACK: per-iteration cost = nearest-neighbour halos (bandwidth,
// cheap) + two global reductions (latency, log P critical path). This
// harness shows the reduction becoming the scaling limit on the Delta.
#include <cmath>
#include <cstdio>

#include "harness.hpp"
#include "linalg/cg.hpp"
#include "proc/machine.hpp"
#include "util/parallel.hpp"

using namespace hpccsim;

int exhibit(const ArgParser& args, bench::Harness& h) {
  std::printf("== A4: CG on the 5-point Laplacian, Touchstone Delta ==\n");
  Table t({"nodes", "grid", "us/iteration", "halo bytes/iter/node",
           "msgs/iter"});
  const std::int64_t base_grid = args.integer("grid");
  const auto iters = static_cast<std::int32_t>(args.integer("iters"));
  // One independent simulated machine per node count: run the sweep
  // points in parallel, render rows in order after the join.
  const std::vector<int> node_counts{16, 64, 256, 528};
  std::vector<std::vector<std::string>> rows(node_counts.size());
  std::vector<linalg::CgResult> results(node_counts.size());
  parallel_for(node_counts.size(), args.jobs(), [&](std::size_t i) {
    const int nodes = node_counts[i];
    const proc::MachineConfig mc = proc::touchstone_delta().with_nodes(nodes);
    nx::NxMachine machine(mc);
    linalg::CgConfig cfg;
    // Weak scaling: constant unknowns per node.
    cfg.grid_n = static_cast<std::int64_t>(
        static_cast<double>(base_grid) *
        std::sqrt(static_cast<double>(nodes) / 16.0));
    cfg.grid = linalg::ProcessGrid{mc.mesh_height, mc.mesh_width};
    cfg.numeric = false;
    cfg.modeled_iters = iters;
    const linalg::CgResult r = linalg::run_distributed_cg(machine, cfg);
    rows[i] = {Table::integer(nodes), Table::integer(cfg.grid_n),
               Table::num(r.per_iteration().as_us(), 1),
               Table::integer(static_cast<std::int64_t>(
                   r.bytes_moved / static_cast<Bytes>(iters) /
                   static_cast<Bytes>(nodes))),
               Table::integer(static_cast<std::int64_t>(
                   r.messages / static_cast<std::uint64_t>(iters)))};
    results[i] = r;
  });
  for (auto& row : rows) t.add_row(std::move(row));
  h.print(t);
  std::printf("expected: per-iteration time grows slowly with node count "
              "under weak scaling — the log(P) allreduce critical path, "
              "not the constant-size halos, is what grows\n");

  obs::BenchMetrics& bm = h.metrics;
  bm.config("grid", base_grid);
  bm.config("iters", static_cast<std::int64_t>(iters));
  std::int64_t messages = 0;
  for (const linalg::CgResult& r : results) {
    bm.add_sim_time(r.elapsed);
    messages += static_cast<std::int64_t>(r.messages);
  }
  bm.metric("messages", messages);
  bm.metric("us_per_iter_528", results.back().per_iteration().as_us());
  return 0;
}

int main(int argc, char** argv) {
  bench::Harness h("asta_cg_scaling", "distributed CG scaling on the Delta");
  h.args.add_option("grid", "unknowns per side at 16 nodes (weak-scaled up)",
                    "512");
  h.args.add_option("iters", "modeled iterations per point", "100");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
