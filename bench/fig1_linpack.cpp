// Exhibit F1: the Delta LINPACK result.
//
// Paper claims (Concurrent Supercomputer Consortium slide):
//   - "PEAK SPEED OF 32 GFLOPS USING THE 528 NUMERIC PROCESSORS"
//   - "13 GFLOPS SPEED OBTAINED ON A LINPAC BENCHMARK CODE OF ORDER
//      25,000 BY 25,000"
//
// This harness sweeps the problem order n on the simulated 528-node
// Delta (modeled execution: identical message schedule, kernel-model
// compute) and reports GFLOPS, efficiency against the 32 GFLOPS peak,
// and the communication/computation split. The paper's operating point
// is the n = 25,000 row.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "linalg/distlu.hpp"
#include "nx/machine_runtime.hpp"
#include "proc/machine.hpp"
#include "util/parallel.hpp"

namespace {

// Kernel efficiencies fitted by bench/calibrate_kernels (a flat JSON
// object; parsed with string search so the bench stays dependency-free).
void apply_calibration(hpccsim::proc::NodeModel& node,
                       const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::invalid_argument("fig1_linpack: cannot read calibration " +
                                path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  auto load = [&text](const char* key, double& field) {
    const std::string quoted = std::string("\"") + key + "\"";
    const std::size_t at = text.find(quoted);
    if (at == std::string::npos) return;
    const std::size_t colon = text.find(':', at + quoted.size());
    if (colon == std::string::npos) return;
    field = std::strtod(text.c_str() + colon + 1, nullptr);
  };
  load("gemm_efficiency", node.gemm_efficiency);
  load("trsm_efficiency", node.trsm_efficiency);
  load("panel_efficiency", node.panel_efficiency);
  load("vector_efficiency", node.vector_efficiency);
}

// The curated comparison set for the --skeleton self-check: every
// deterministic whole-run counter the replay must reproduce exactly.
// (lu.skeleton.* intentionally differs between a derived and a replayed
// machine — docs/MODEL.md §13.)
constexpr const char* kReplayCheckedCounters[] = {
    "core.engine.events",  "core.engine.calls_scheduled",
    "nx.sends",            "nx.recvs",
    "nx.bytes_sent",       "nx.flops_charged",
    "nx.compute.ns",       "nx.send_wait.ns",
    "nx.recv_wait.ns",     "mesh.messages",
};

using namespace hpccsim;

int exhibit(const ArgParser& args, bench::Harness& h) {
  proc::MachineConfig mc = proc::machine_by_name(args.str("machine"));
  const std::string calibration = args.str("calibration");
  if (!calibration.empty()) apply_calibration(mc.node, calibration);
  const double peak = mc.machine_peak().gflops();
  std::printf("== F1: LINPACK on %s (%d nodes, peak %.1f GFLOPS) ==\n",
              mc.name.c_str(), mc.node_count(), peak);

  // Each sweep point runs a fully independent simulated machine, so the
  // sweep parallelizes across engines; rows land in pre-sized slots and
  // the table is rendered only after the join, making the output
  // byte-identical at any --jobs value.
  const int jobs = args.jobs();
  const std::vector<std::int64_t> orders = args.int_list("n");
  obs::BenchMetrics& bm = h.metrics;
  bm.config("machine", args.str("machine"));
  bm.config("n", args.str("n"));
  bm.config("nb", args.integer("nb"));

  Table t({"n", "NB", "time (s)", "GFLOPS", "% of peak", "messages",
           "GB moved"});
  const bool skeleton = args.flag("skeleton");
  std::vector<std::vector<std::string>> rows(orders.size());
  std::vector<linalg::LuResult> results(orders.size());
  std::vector<obs::Registry> regs(orders.size());
  std::vector<std::string> mismatches(orders.size());
  std::atomic<std::uint64_t> replay_ops{0};
  std::atomic<std::int64_t> replay_ns{0};
  parallel_for(orders.size(), jobs, [&](std::size_t i) {
    const std::int64_t n = orders[i];
    nx::NxMachine machine(mc);
    linalg::LuConfig cfg = linalg::lu_config_for(machine, n,
                                                 args.integer("nb"));
    linalg::LuResult r;
    if (skeleton) {
      // Self-check: record the schedule while deriving, then replay it
      // on a fresh machine — results and counters must be identical
      // (stdout stays byte-for-byte the plain sweep's: rows and the
      // attached counters all come from the derived machine).
      const auto skel = linalg::derive_lu_skeleton(machine, cfg, &r);
      if (!skel) {
        mismatches[i] = "schedule not representable";
      } else {
        nx::NxMachine rm(mc);
        const auto t0 = std::chrono::steady_clock::now();
        const linalg::LuResult rr = linalg::replay_lu_skeleton(rm, cfg, *skel);
        const auto t1 = std::chrono::steady_clock::now();
        replay_ops += skel->total_ops();
        replay_ns +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count();
        std::ostringstream bad;
        if (rr.elapsed != r.elapsed)
          bad << " elapsed " << rr.elapsed.str() << "!=" << r.elapsed.str();
        if (rr.gflops != r.gflops) bad << " gflops";
        if (rr.messages != r.messages) bad << " messages";
        if (rr.bytes_moved != r.bytes_moved) bad << " bytes_moved";
        if (rr.flops_charged != r.flops_charged) bad << " flops_charged";
        if (rr.compute_time != r.compute_time) bad << " compute_time";
        obs::Registry& ra = machine.snapshot_counters();
        obs::Registry& rb = rm.snapshot_counters();
        for (const char* name : kReplayCheckedCounters)
          if (ra.value(name) != rb.value(name))
            bad << ' ' << name << ' ' << ra.value(name) << "!="
                << rb.value(name);
        mismatches[i] = bad.str();
      }
    } else {
      r = linalg::run_distributed_lu(machine, cfg);
    }
    rows[i] = {Table::integer(n), Table::integer(cfg.nb),
               Table::num(r.elapsed.as_sec(), 1), Table::num(r.gflops, 2),
               Table::num(r.gflops / peak * 100.0, 1),
               Table::integer(static_cast<std::int64_t>(r.messages)),
               Table::num(static_cast<double>(r.bytes_moved) / 1e9, 2)};
    results[i] = r;
    regs[i] = machine.snapshot_counters();
  });
  bool failed = false;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    if (mismatches[i].empty()) continue;
    std::fprintf(stderr, "SKELETON MISMATCH n=%lld:%s\n",
                 static_cast<long long>(orders[i]), mismatches[i].c_str());
    failed = true;
  }
  if (skeleton && replay_ns.load() > 0)
    std::fprintf(stderr,
                 "skeleton replay: %llu ops in %.3f s (%.1f Mops/s)\n",
                 static_cast<unsigned long long>(replay_ops.load()),
                 static_cast<double>(replay_ns.load()) / 1e9,
                 static_cast<double>(replay_ops.load()) * 1e3 /
                     static_cast<double>(replay_ns.load()));
  for (auto& row : rows) t.add_row(std::move(row));
  h.print(t);
  std::printf("paper's operating point: n=25000 -> ~13 GFLOPS "
              "(~40%% of the 32 GFLOPS peak)\n\n");

  // Aggregate in sweep-index order: byte-identical at any --jobs.
  obs::Registry& totals = h.counters;
  double gflops_max = 0.0;
  std::int64_t messages = 0, bytes_moved = 0;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    totals.merge(regs[i]);
    bm.add_sim_time(results[i].elapsed);
    gflops_max = std::max(gflops_max, results[i].gflops);
    messages += static_cast<std::int64_t>(results[i].messages);
    bytes_moved += static_cast<std::int64_t>(results[i].bytes_moved);
  }
  // Registry::merge adds gauges, but the contention gauges are a max
  // and a per-message mean: take the max over points, and the mean
  // weighted by each point's routed messages.
  double contention_max = 0.0, contention_us = 0.0;
  std::int64_t routed = 0;
  for (const obs::Registry& reg : regs) {
    const std::int64_t m = reg.value("mesh.messages");
    contention_max =
        std::max(contention_max, reg.gauge("mesh.contention.us.max"));
    contention_us += reg.gauge("mesh.contention.us.mean") *
                     static_cast<double>(m);
    routed += m;
  }
  if (routed > 0) {
    totals.set_gauge("mesh.contention.us.max", contention_max);
    totals.set_gauge("mesh.contention.us.mean",
                     contention_us / static_cast<double>(routed));
  }
  bm.metric("gflops_max", gflops_max);
  bm.metric("messages", messages);
  bm.metric("bytes_moved", bytes_moved);
  for (std::size_t i = 0; i < orders.size(); ++i) {
    if (orders[i] != 25000) continue;
    // The paper's headline: "13 GFLOPS ... OF ORDER 25,000 BY 25,000".
    bm.metric("gflops_n25000", results[i].gflops);
    bm.metric("sim_time_n25000_s", results[i].elapsed.as_sec());
    if (!calibration.empty() &&
        std::fabs(results[i].gflops - 13.0) > 0.65) {
      std::fprintf(stderr,
                   "FAIL: calibrated n=25000 gives %.2f GFLOPS, outside "
                   "13.0 +/- 0.65\n", results[i].gflops);
      failed = true;
    }
  }
  if (failed) return 1;

  if (args.flag("nb-sweep")) {
    std::printf("== F1b: block-size sensitivity at n=25000 ==\n");
    Table s({"NB", "GFLOPS", "% of peak"});
    const std::vector<std::int64_t> nbs{16, 32, 64, 128, 256};
    std::vector<std::vector<std::string>> nb_rows(nbs.size());
    parallel_for(nbs.size(), jobs, [&](std::size_t i) {
      nx::NxMachine machine(mc);
      linalg::LuConfig cfg = linalg::lu_config_for(machine, 25000, nbs[i]);
      const linalg::LuResult r = linalg::run_distributed_lu(machine, cfg);
      nb_rows[i] = {Table::integer(nbs[i]), Table::num(r.gflops, 2),
                    Table::num(r.gflops / peak * 100.0, 1)};
    });
    for (auto& row : nb_rows) s.add_row(std::move(row));
    h.print(s);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("fig1_linpack", "Delta LINPACK sweep (GFLOPS vs order n)");
  h.args.add_option("machine", "machine preset (delta, gamma)", "delta");
  h.args.add_option("n", "comma-separated problem orders",
                    "1000,2500,5000,10000,15000,20000,25000");
  h.args.add_option("nb", "block size", "64");
  h.args.add_jobs_option();
  h.args.add_flag("nb-sweep", "also sweep the block size at n=25000");
  h.args.add_flag("skeleton",
                  "derive + replay each point; fail if the replay diverges");
  h.args.add_option("calibration",
                    "kernel-efficiency JSON (bench/calibration.json); enables "
                    "the 13 GFLOPS gate at n=25000", "");
  return h.run(argc, argv, exhibit);
}
