// Exhibit F2: massively-parallel scaling across the Touchstone series.
//
// The paper frames the Delta as "ONE OF [A] SERIES OF DARPA DEVELOPED
// MASSIVELY PARALLEL COMPUTERS". This harness shows why the series
// scaled: LINPACK GFLOPS and parallel efficiency as the node count grows
// from 16 to the full 528, for the Delta interconnect and the previous
// generation (iPSC/860-class network), at fixed memory per node
// (weak-ish scaling: n grows with sqrt(P)) and at fixed n (strong
// scaling).
#include <cmath>
#include <cstdio>

#include "harness.hpp"
#include "linalg/distlu.hpp"
#include "proc/machine.hpp"
#include "util/parallel.hpp"

namespace {

using namespace hpccsim;

constexpr int kNodeCounts[] = {16, 32, 64, 128, 264, 528};
constexpr std::size_t kPointsPerSweep = std::size(kNodeCounts);

struct Sweep {
  proc::MachineConfig base;
  bool strong;
  std::int64_t n_base;
};

struct PointResult {
  std::int64_t n = 0;
  double gflops = 0.0;
  sim::Time elapsed;
};

int exhibit(const ArgParser& args, bench::Harness& h) {
  const std::int64_t n_base = args.integer("n");
  std::printf("== F2: scaling of the DARPA Touchstone series ==\n");

  const Sweep sweeps[] = {
      {proc::touchstone_delta(), /*strong=*/false, n_base},
      {proc::touchstone_delta(), /*strong=*/true, 4 * n_base},
      {proc::ipsc860(), /*strong=*/false, n_base},
      {proc::paragon(), /*strong=*/false, n_base},
  };

  // Every (sweep, node count) point is an independent simulation; run
  // them all through one parallel_for and render afterwards. The
  // efficiency column normalizes each sweep against its own 16-node
  // row, so raw GFLOPS must be collected before any row can be printed.
  const std::size_t total = std::size(sweeps) * kPointsPerSweep;
  std::vector<PointResult> results(total);
  parallel_for(total, args.jobs(), [&](std::size_t i) {
    const Sweep& sw = sweeps[i / kPointsPerSweep];
    const int nodes = kNodeCounts[i % kPointsPerSweep];
    const proc::MachineConfig mc = sw.base.with_nodes(nodes);
    nx::NxMachine machine(mc);
    // Weak-ish scaling: keep local matrix volume constant -> n ~ sqrt(P).
    const std::int64_t n =
        sw.strong ? sw.n_base
                  : static_cast<std::int64_t>(
                        static_cast<double>(sw.n_base) *
                        std::sqrt(static_cast<double>(nodes) / 16.0));
    linalg::LuConfig cfg = linalg::lu_config_for(machine, n, 64);
    const linalg::LuResult r = linalg::run_distributed_lu(machine, cfg);
    results[i] = {n, r.gflops, r.elapsed};
  });

  Table t({"machine", "mode", "nodes", "n", "GFLOPS", "MFLOPS/node",
           "efficiency vs 16 (%)"});
  for (std::size_t s = 0; s < std::size(sweeps); ++s) {
    const Sweep& sw = sweeps[s];
    const double per_node_at_16 =
        results[s * kPointsPerSweep].gflops / kNodeCounts[0];
    for (std::size_t p = 0; p < kPointsPerSweep; ++p) {
      const PointResult& r = results[s * kPointsPerSweep + p];
      const int nodes = kNodeCounts[p];
      const double per_node = r.gflops / nodes;
      t.add_row({sw.base.name, sw.strong ? "strong" : "weak",
                 Table::integer(nodes), Table::integer(r.n),
                 Table::num(r.gflops, 2),
                 Table::num(per_node * 1000.0, 1),
                 Table::num(per_node / per_node_at_16 * 100.0, 1)});
    }
  }
  h.print(t);
  std::printf("expected shape: weak scaling holds efficiency high to 528 "
              "nodes on the Delta; strong scaling at fixed n decays; the "
              "iPSC/860-class network decays sooner (slower links, higher "
              "software overhead)\n");

  obs::BenchMetrics& bm = h.metrics;
  bm.config("n", n_base);
  for (const PointResult& r : results) bm.add_sim_time(r.elapsed);
  // Headline: the full-machine Delta weak-scaling point (sweep 0, last
  // node count) and its efficiency against the 16-node row.
  const PointResult& full = results[kPointsPerSweep - 1];
  const double per_node_16 = results[0].gflops / kNodeCounts[0];
  bm.metric("delta_weak_gflops_528", full.gflops);
  bm.metric("delta_weak_eff_528",
            full.gflops / kNodeCounts[kPointsPerSweep - 1] / per_node_16);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("fig2_scaling",
                   "LINPACK scaling across the Touchstone series");
  h.args.add_option("n", "base problem order (at 16 nodes for weak scaling)",
                    "4000");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
