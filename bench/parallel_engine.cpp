// Parallel nx-engine scaling bench: wall-clock cost of the rank-band
// sharded discrete-event engine across a thread sweep on modeled
// LU + CG workloads, with a byte-identity cross-check between every
// thread count (docs/MODEL.md §15, docs/PERF.md).
//
// Every thread count runs the identical modeled schedule; the first
// entry of --threads is the oracle, and any divergence in a result
// field or a thread-invariant counter at a later entry exits non-zero
// — so the CI metrics run doubles as the parallel determinism check at
// bench scale. Wall times and speedups are host-dependent and
// therefore reported, never gated (see docs/PERF.md for multi-core
// numbers); --require-speedup X turns the max-thread speedup into a
// hard gate on hosts where the parallelism is real (bench/harness.hpp).
//
// Machines: any preset (delta, paragon, ...); the headline is
// "columbia" — the 0.8-Teraflops-class 128 x 128 mesh (16,384 ranks)
// of the program's mid-decade roadmap, big enough that each rank band
// carries real work.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "linalg/cg.hpp"
#include "linalg/distlu.hpp"
#include "nx/machine_runtime.hpp"
#include "proc/machine.hpp"

namespace {

// Thread-invariant whole-run counters the sweep must reproduce exactly
// at every thread count. Partition-dependent counters
// (core.engine.peak_queue_depth, core.engine.call_slot_high_water,
// engine.shard.*) are intentionally absent — docs/MODEL.md §15.
constexpr const char* kInvariantCounters[] = {
    "core.engine.events",  "core.engine.calls_scheduled",
    "nx.sends",            "nx.recvs",
    "nx.bytes_sent",       "nx.flops_charged",
    "nx.compute.ns",       "nx.send_wait.ns",
    "nx.recv_wait.ns",     "mesh.messages",
};

using namespace hpccsim;

int exhibit(const ArgParser& args, bench::Harness& h) {
  proc::MachineConfig mc = proc::machine_by_name(args.str("machine"));
  if (const std::int64_t nodes = args.integer("nodes"); nodes > 0)
    mc = mc.with_nodes(static_cast<std::int32_t>(nodes));
  const std::string workload = args.str("workload");
  const bool run_lu = workload.find("lu") != std::string::npos;
  const bool run_cg = workload.find("cg") != std::string::npos;
  if (!run_lu && !run_cg)
    throw std::invalid_argument("--workload must name lu and/or cg");
  const std::int64_t nb = args.integer("nb");
  const std::int64_t wide =
      std::max<std::int64_t>(mc.mesh_width, mc.mesh_height);
  const std::int64_t n = args.integer("n") > 0 ? args.integer("n") : nb * wide;
  const std::int64_t cg_grid_n =
      args.integer("cg-grid-n") > 0 ? args.integer("cg-grid-n") : 8 * wide;
  const auto cg_iters = static_cast<std::int32_t>(args.integer("cg-iters"));

  std::printf("== parallel engine: %s (%d nodes), lu n=%lld nb=%lld, "
              "cg grid %lldx%lld x%d iters ==\n",
              mc.name.c_str(), mc.node_count(), static_cast<long long>(n),
              static_cast<long long>(nb), static_cast<long long>(cg_grid_n),
              static_cast<long long>(cg_grid_n), cg_iters);

  Table t({"threads", "bands", "windows", "intents", "handoffs", "wall (s)",
           "speedup"});
  obs::BenchMetrics& bm = h.metrics;
  bm.config("machine", mc.name);
  bm.config("n", n);
  bm.config("nb", nb);
  bm.config("cg_grid_n", cg_grid_n);
  bm.config("cg_iters", static_cast<std::int64_t>(cg_iters));
  bm.config("workload", workload);

  // The first --threads entry is the oracle.
  double wall_base = 0.0;
  linalg::LuResult lu_oracle;
  linalg::CgResult cg_oracle;
  obs::Registry oracle_reg;

  const int rc = h.thread_sweep([&](int threads) {
    nx::NxMachine machine(mc);
    machine.set_threads(threads);

    obs::WallTimer tw;
    linalg::LuResult lu;
    if (run_lu) {
      const linalg::LuConfig cfg = linalg::lu_config_for(machine, n, nb);
      lu = linalg::run_distributed_lu(machine, cfg);
    }
    linalg::CgResult cg;
    if (run_cg) {
      linalg::CgConfig cfg;
      cfg.grid_n = cg_grid_n;
      cfg.grid = linalg::ProcessGrid{mc.mesh_height, mc.mesh_width};
      cfg.numeric = false;
      cfg.modeled_iters = cg_iters;
      cg = linalg::run_distributed_cg(machine, cfg);
    }
    const double wall_s = tw.elapsed_s();
    obs::Registry& reg = machine.snapshot_counters();

    if (oracle_reg.empty()) {
      lu_oracle = lu;
      cg_oracle = cg;
      oracle_reg = reg;
      wall_base = wall_s;
      if (run_lu) bm.add_sim_time(lu.elapsed);
      if (run_cg) bm.add_sim_time(cg.elapsed);
    }
    // Byte-identity cross-check against the oracle: every simulated-time
    // result and every thread-invariant counter must match exactly —
    // "same machine, same program, same answer".
    std::ostringstream bad;
    if (run_lu) {
      if (lu.elapsed != lu_oracle.elapsed)
        bad << " lu.elapsed " << lu.elapsed.str()
            << "!=" << lu_oracle.elapsed.str();
      if (lu.gflops != lu_oracle.gflops) bad << " lu.gflops";
      if (lu.messages != lu_oracle.messages) bad << " lu.messages";
      if (lu.bytes_moved != lu_oracle.bytes_moved) bad << " lu.bytes_moved";
      if (lu.flops_charged != lu_oracle.flops_charged)
        bad << " lu.flops_charged";
      if (lu.compute_time != lu_oracle.compute_time)
        bad << " lu.compute_time";
    }
    if (run_cg) {
      if (cg.elapsed != cg_oracle.elapsed)
        bad << " cg.elapsed " << cg.elapsed.str()
            << "!=" << cg_oracle.elapsed.str();
      if (cg.iterations != cg_oracle.iterations) bad << " cg.iterations";
      if (cg.messages != cg_oracle.messages) bad << " cg.messages";
      if (cg.bytes_moved != cg_oracle.bytes_moved) bad << " cg.bytes_moved";
    }
    for (const char* name : kInvariantCounters)
      if (reg.value(name) != oracle_reg.value(name))
        bad << ' ' << name << ' ' << reg.value(name)
            << "!=" << oracle_reg.value(name);
    // Counters land in the JSON from the last sweep entry, so the
    // engine.shard.* counters reflect the widest configuration.
    // Partition-dependent counters are deterministic per thread count
    // only — the determinism harness normalizes them
    // (tests/compare_jobs.cmake).
    h.counters = reg;

    t.add_row({Table::num(static_cast<double>(threads), 0),
               Table::integer(reg.value("engine.shard.bands")),
               Table::integer(reg.value("engine.shard.windows")),
               Table::integer(reg.value("engine.shard.intents")),
               Table::integer(reg.value("engine.shard.handoffs")),
               Table::num(wall_s, 2), Table::num(wall_base / wall_s, 2)});
    return bench::SweepRun{wall_s, bad.str()};
  });
  h.print(t);
  std::printf("expected: identical simulated results and thread-invariant "
              "counters at every thread count; speedup scales with cores "
              "(single-core hosts pipeline the bands with no gain)\n");

  if (run_lu) {
    bm.metric("lu_gflops", lu_oracle.gflops);
    bm.metric("lu_sim_time_s", lu_oracle.elapsed.as_sec());
    bm.metric("lu_messages",
              static_cast<std::int64_t>(lu_oracle.messages));
  }
  if (run_cg) {
    bm.metric("cg_sim_time_s", cg_oracle.elapsed.as_sec());
    bm.metric("cg_messages",
              static_cast<std::int64_t>(cg_oracle.messages));
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("parallel_engine",
                   "rank-band sharded nx engine scaling (modeled LU + CG)");
  h.args.add_option("machine", "machine preset (columbia, delta, paragon)",
                    "columbia");
  h.args.add_option("nodes", "shrink to this many nodes (0 = full machine)",
                    "0");
  h.add_thread_sweep_options("1,2,4,8");
  h.args.add_option("n", "LU order (0 = one block row per process column)",
                    "0");
  h.args.add_option("nb", "LU block size", "64");
  h.args.add_option("cg-grid-n", "CG unknowns per side (0 = 8 per process row)",
                    "0");
  h.args.add_option("cg-iters", "modeled CG iterations", "20");
  h.args.add_option("workload", "comma list: lu, cg", "lu,cg");
  return h.run(argc, argv, exhibit);
}
