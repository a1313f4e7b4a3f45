// Exhibit A5 (CAS extension): distributed FFT — the alltoall workload.
//
// Spectral CFD codes in the aerosciences program are transpose-FFT
// bound: the global transpose moves the entire dataset across the mesh
// bisection every timestep. This harness sweeps problem size and node
// count, reporting sustained MFLOPS and the share of time the transpose
// costs, on the simulated Delta.
#include <cstdio>

#include "harness.hpp"
#include "linalg/fft.hpp"
#include "proc/machine.hpp"
#include "util/parallel.hpp"

using namespace hpccsim;

int exhibit(const ArgParser& args, bench::Harness& h) {
  std::printf("== A5: four-step FFT (modeled) on the Touchstone Delta ==\n");
  Table t({"nodes", "N (points)", "time (ms)", "MFLOPS", "% of peak",
           "GB transposed"});
  struct Pt {
    int nodes;
    std::int64_t n1, n2;
  };
  // Node counts are powers of two: the radix-2 four-step FFT needs the
  // bands to divide the transform sizes, so (as on the real Delta) FFT
  // jobs ran on power-of-two partitions, not all 528 nodes.
  const Pt points[] = {
      {16, 1024, 1024},  {64, 1024, 1024},  {64, 4096, 4096},
      {256, 4096, 4096}, {512, 4096, 4096},
  };
  // One independent simulated machine per point: parallelize the sweep,
  // render rows in order after the join.
  std::vector<std::vector<std::string>> rows(std::size(points));
  std::vector<linalg::FftResult> results(rows.size());
  parallel_for(rows.size(), args.jobs(), [&](std::size_t i) {
    const Pt& p = points[i];
    const proc::MachineConfig mc =
        proc::touchstone_delta().with_nodes(p.nodes);
    nx::NxMachine machine(mc);
    linalg::FftConfig cfg;
    cfg.n1 = p.n1;
    cfg.n2 = p.n2;
    cfg.numeric = false;
    const linalg::FftResult r = linalg::run_distributed_fft(machine, cfg);
    const double peak_mflops = mc.machine_peak().mflops();
    rows[i] = {Table::integer(p.nodes),
               Table::integer(p.n1 * p.n2),
               Table::num(r.elapsed.as_ms(), 1), Table::num(r.mflops, 0),
               Table::num(r.mflops / peak_mflops * 100.0, 1),
               Table::num(static_cast<double>(r.bytes_moved) / 1e9, 3)};
    results[i] = r;
  });
  for (auto& row : rows) t.add_row(std::move(row));
  h.print(t);
  std::printf("expected: FFT sustains a far lower fraction of peak than LU "
              "— it is bisection-bandwidth bound, the reason spectral "
              "codes pushed for the gigabit NREN interconnects the paper "
              "funds\n");

  obs::BenchMetrics& bm = h.metrics;
  std::int64_t bytes_moved = 0;
  for (const linalg::FftResult& r : results) {
    bm.add_sim_time(r.elapsed);
    bytes_moved += static_cast<std::int64_t>(r.bytes_moved);
  }
  bm.metric("bytes_moved", bytes_moved);
  bm.metric("mflops_last", results.back().mflops);
  return 0;
}

int main(int argc, char** argv) {
  bench::Harness h("cas_fft", "distributed four-step FFT on the Delta");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
