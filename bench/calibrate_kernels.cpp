// Kernel-efficiency calibration against the paper's headline number.
//
// The paper quotes "13 GFLOPS SPEED OBTAINED ON A LINPAC BENCHMARK CODE
// OF ORDER 25,000 BY 25,000". The node model's kernel efficiencies are
// hand-estimated i860 figures; this tool fits gemm_efficiency (the only
// kernel that matters at order 25,000 — the trailing dgemm dominates) so
// the modeled run lands exactly on the published point, and writes the
// fit to a JSON artifact that fig1_linpack --calibration consumes.
//
// The fit exploits the skeleton cache: the LU communication schedule is
// derived ONCE (the expensive coroutine run) and then replayed under
// candidate NodeModels — the schedule never reads the clock, so one
// skeleton retimes validly under any kernel model (docs/MODEL.md §13).
// Each bisection step therefore costs a replay, not a re-derivation.
#include <cmath>
#include <cstdio>
#include <fstream>

#include "harness.hpp"
#include "linalg/distlu.hpp"
#include "nx/machine_runtime.hpp"
#include "proc/machine.hpp"

namespace {

using namespace hpccsim;

int calibrate(const ArgParser& args) {
  const proc::MachineConfig base = proc::machine_by_name(args.str("machine"));
  const std::int64_t n = args.integer("n");
  const double target = args.real("target");
  const double tol = args.real("tolerance");

  // Derive the schedule once on the uncalibrated machine.
  std::printf("deriving n=%lld schedule on %s (%d nodes)...\n",
              static_cast<long long>(n), base.name.c_str(),
              base.node_count());
  nx::NxMachine machine(base);
  linalg::LuConfig cfg =
      linalg::lu_config_for(machine, n, args.integer("nb"));
  linalg::LuResult derived;
  const auto skel = linalg::derive_lu_skeleton(machine, cfg, &derived);
  if (!skel) {
    std::fprintf(stderr, "schedule not representable\n");
    return 1;
  }
  std::printf("uncalibrated: %.3f GFLOPS at gemm_efficiency=%.4f "
              "(%zu schedule ops)\n",
              derived.gflops, base.node.gemm_efficiency, skel->total_ops());

  auto gflops_at = [&](double eff) {
    proc::MachineConfig mc = base;
    mc.node.gemm_efficiency = eff;
    nx::NxMachine rm(mc);
    return linalg::replay_lu_skeleton(rm, cfg, *skel).gflops;
  };

  // GFLOPS is monotone in gemm_efficiency; bisect on [lo, hi].
  double lo = 0.30, hi = 0.90;
  if (gflops_at(lo) > target || gflops_at(hi) < target) {
    std::fprintf(stderr, "target %.2f GFLOPS outside [%.2f, %.2f] "
                 "efficiency bracket\n", target, lo, hi);
    return 1;
  }
  double mid = base.node.gemm_efficiency, got = derived.gflops;
  for (int it = 0; it < 60 && std::fabs(got - target) > tol; ++it) {
    mid = 0.5 * (lo + hi);
    got = gflops_at(mid);
    std::printf("  gemm_efficiency=%.5f -> %.4f GFLOPS\n", mid, got);
    (got < target ? lo : hi) = mid;
  }
  std::printf("fit: gemm_efficiency=%.5f gives %.4f GFLOPS (target %.2f)\n",
              mid, got, target);

  std::ofstream out(args.str("out"));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.str("out").c_str());
    return 1;
  }
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"comment\": \"fit by bench/calibrate_kernels: "
                "gemm_efficiency bisected so the modeled n=%lld LINPACK "
                "run reproduces the paper's %.2f GFLOPS\",\n"
                "  \"machine\": \"%s\",\n"
                "  \"n\": %lld,\n"
                "  \"nb\": %lld,\n"
                "  \"target_gflops\": %.4f,\n"
                "  \"fitted_gflops\": %.4f,\n"
                "  \"gemm_efficiency\": %.5f,\n"
                "  \"trsm_efficiency\": %.5f,\n"
                "  \"panel_efficiency\": %.5f,\n"
                "  \"vector_efficiency\": %.5f\n"
                "}\n",
                static_cast<long long>(n), target, base.name.c_str(),
                static_cast<long long>(n),
                static_cast<long long>(cfg.nb), target, got, mid,
                base.node.trsm_efficiency, base.node.panel_efficiency,
                base.node.vector_efficiency);
  out << buf;
  std::printf("wrote %s\n", args.str("out").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("calibrate_kernels",
                 "fit gemm_efficiency to the paper's 13 GFLOPS point");
  args.add_option("machine", "machine preset", "delta");
  args.add_option("n", "problem order of the target point", "25000");
  args.add_option("nb", "block size", "64");
  args.add_option("target", "target GFLOPS at the point", "13.0");
  args.add_option("tolerance", "fit tolerance in GFLOPS", "0.005");
  args.add_option("out", "output JSON path", "bench/calibration.json");
  return bench::run_cli(args, argc, argv, [&] { return calibrate(args); });
}
