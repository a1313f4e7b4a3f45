// Exhibit A10 (ASTA extension): the two dense factorizations compared.
//
// LU (with pivoting) is the LINPACK benchmark; QR is the numerically
// robust alternative the CAS least-squares and eigen codes used. QR does
// twice the flops and is reduction-bound in its panel phase, so its
// sustained fraction of peak trails LU's — the classic trade, measured
// here on the full simulated Delta.
#include <cstdio>

#include "harness.hpp"
#include "linalg/distlu.hpp"
#include "linalg/distqr.hpp"
#include "proc/machine.hpp"

using namespace hpccsim;

int exhibit(const ArgParser& args, bench::Harness& h) {
  proc::MachineConfig mc = proc::touchstone_delta();
  if (args.integer("nodes") > 0)
    mc = mc.with_nodes(static_cast<std::int32_t>(args.integer("nodes")));
  std::printf("== A10: LU vs QR on %s (%d nodes) ==\n", mc.name.c_str(),
              mc.node_count());

  obs::BenchMetrics& bm = h.metrics;
  bm.config("n", args.str("n"));
  bm.config("nodes", static_cast<std::int64_t>(mc.node_count()));
  double lu_gflops_last = 0.0, qr_gflops_last = 0.0;

  Table t({"n", "LU time (s)", "LU GFLOPS", "QR time (s)", "QR GFLOPS",
           "QR/LU time"});
  for (const std::int64_t n : args.int_list("n")) {
    nx::NxMachine lu_machine(mc);
    const auto lu = linalg::run_distributed_lu(
        lu_machine, linalg::lu_config_for(lu_machine, n, 64));

    nx::NxMachine qr_machine(mc);
    linalg::QrConfig qc;
    qc.n = n;
    qc.nb = 64;
    qc.grid = linalg::ProcessGrid{mc.mesh_height, mc.mesh_width};
    qc.mode = linalg::ExecMode::Modeled;
    const auto qr = linalg::run_distributed_qr(qr_machine, qc);

    bm.add_sim_time(lu.elapsed);
    bm.add_sim_time(qr.elapsed);
    lu_gflops_last = lu.gflops;
    qr_gflops_last = qr.gflops;
    t.add_row({Table::integer(n), Table::num(lu.elapsed.as_sec(), 2),
               Table::num(lu.gflops, 2), Table::num(qr.elapsed.as_sec(), 2),
               Table::num(qr.gflops, 2),
               Table::num(qr.elapsed.as_sec() / lu.elapsed.as_sec(), 2)});
  }
  h.print(t);
  std::printf("expected: at small orders both are latency-bound and tie "
              "(QR's per-column collectives mirror LU's pivot search); as "
              "n grows QR's 2x flops and reduction-bound panel push its "
              "time toward 2x LU's, while its headline GFLOPS (4/3 n^3) "
              "stays ~2x LU's by construction\n");

  bm.metric("lu_gflops_last", lu_gflops_last);
  bm.metric("qr_gflops_last", qr_gflops_last);
  return 0;
}

int main(int argc, char** argv) {
  bench::Harness h("asta_factorizations", "LU vs QR on the simulated Delta");
  h.args.add_option("n", "problem orders", "1000,2000,4000,8000");
  h.args.add_option("nodes", "node count (0 = full 528)", "64");
  return h.run(argc, argv, exhibit);
}
