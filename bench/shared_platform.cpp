// Exhibit A13: a month of shared-platform production scheduling.
//
// One run simulates ~30 days of a 33x16 space-shared machine working
// through ~1000 jobs from five application communities, with node
// crashes rolling jobs back to their last checkpoint and every
// checkpoint/restore fighting for the same few-MB/s CFS. The three
// checkpoint-ordering strategies from src/sched/platform.hpp run as
// sweep points over the SAME workload and the SAME fault trace (common
// random numbers), so the waste column isolates the ordering policy:
// cooperative serialization should beat the uncoordinated Young/Daly
// baseline on platform waste, and the harness fails if it doesn't.
//
// Determinism: each strategy owns an engine/simulator, run under
// parallel_for's static partition; registries merge in strategy order,
// so stdout and --json are byte-identical at any --jobs value.
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "harness.hpp"
#include "sched/platform.hpp"
#include "sched/workload.hpp"
#include "util/parallel.hpp"

namespace {

using namespace hpccsim;
using namespace hpccsim::sched;

struct StrategyRun {
  CheckpointStrategy strategy = CheckpointStrategy::Uncoordinated;
  PlatformResult result;
  obs::Registry registry;
};

int exhibit(const ArgParser& args, bench::Harness& h) {
  // The mesh, platform_workload() and the CFS require positive sizes,
  // a positive span and an MTBF with a picosecond count; name the option
  // at fault instead of their preconditions.
  const std::int32_t width = bench::positive_int32(args, "width");
  const std::int32_t height = bench::positive_int32(args, "height");
  const mesh::Mesh2D mesh(width, height);
  PlatformWorkloadConfig wc;
  wc.seed = static_cast<std::uint64_t>(args.integer("seed"));
  wc.jobs = bench::positive_int32(args, "njobs");
  wc.days = args.real("days");
  if (!(wc.days > 0.0))
    throw std::invalid_argument("--days must be > 0, got " +
                                args.str("days"));
  const std::vector<PlatformJob> trace = platform_workload(wc, mesh);

  // 2^64 ps is ~213.5 days.
  const double mtbf_days = args.real("node-mtbf-days");
  if (!(mtbf_days >= 0.0 && mtbf_days < 213.0))
    throw std::invalid_argument("--node-mtbf-days must be in [0, 213), got " +
                                args.str("node-mtbf-days"));
  PlatformConfig base;
  base.node_mtbf = sim::Time::sec(mtbf_days * 86400.0);
  base.failure_seed = static_cast<std::uint64_t>(args.integer("failure-seed"));
  base.io_disks = bench::positive_int32(args, "io-disks");

  obs::BenchMetrics& bm = h.metrics;
  bm.config("width", args.integer("width"));
  bm.config("height", args.integer("height"));
  bm.config("njobs", args.integer("njobs"));
  bm.config("days", args.str("days"));
  bm.config("node_mtbf_days", args.str("node-mtbf-days"));
  bm.config("io_disks", args.integer("io-disks"));
  bm.config("seed", args.integer("seed"));
  bm.config("failure_seed", args.integer("failure-seed"));
  bm.set_threads(args.jobs());

  const std::vector<CheckpointStrategy> strategies = {
      CheckpointStrategy::Uncoordinated,
      CheckpointStrategy::FifoCooperative,
      CheckpointStrategy::OrderedCooperative,
  };
  std::vector<StrategyRun> runs(strategies.size());
  parallel_for(strategies.size(), args.jobs(), [&](std::size_t i) {
    StrategyRun& r = runs[i];
    r.strategy = strategies[i];
    PlatformConfig cfg = base;
    cfg.strategy = r.strategy;
    PlatformSimulator sim(mesh, cfg);
    sim.submit(trace);
    r.result = sim.run();
    sim.export_counters(r.registry);
  });

  std::printf("== A13: %d jobs over ~%.0f days on %dx%d, node MTBF %.0f "
              "days, CFS %.1f MB/s ==\n",
              wc.jobs, wc.days, mesh.width(), mesh.height(),
              args.real("node-mtbf-days"),
              io::effective_cfs_bandwidth(io::CfsConfig{}, base.io_disks)
                      .bytes_per_sec() /
                  1e6);

  Table t({"strategy", "waste %", "util %", "useful nh", "ckpt nh", "lost nh",
           "restore nh", "rollbk", "ckpts", "aborted", "wait min",
           "b-slowdown", "io-wait s"});
  obs::Registry& merged = h.counters;
  for (const StrategyRun& r : runs) {
    const PlatformResult& p = r.result;
    bm.add_sim_time(p.makespan);
    t.add_row({strategy_name(r.strategy), Table::num(p.waste() * 100.0, 2),
               Table::num(p.utilization * 100.0, 1),
               Table::num(p.useful_node_seconds / 3600.0, 0),
               Table::num(p.ckpt_node_seconds / 3600.0, 0),
               Table::num(p.lost_node_seconds / 3600.0, 0),
               Table::num(p.restore_node_seconds / 3600.0, 0),
               Table::integer(p.rollbacks), Table::integer(p.ckpts_committed),
               Table::integer(p.ckpts_aborted),
               Table::num(p.wait_minutes.mean(), 1),
               Table::num(p.bounded_slowdown.mean(), 2),
               Table::num(p.ckpt_queue_wait_s.mean(), 1)});
    merged.merge(r.registry);
  }
  h.print(t);
  std::printf("expected: serializing checkpoint writes keeps every write "
              "short (no mutual stretching), and waiting jobs keep "
              "computing, so both cooperative strategies waste less of "
              "the platform than uncoordinated Young/Daly; smallest-first "
              "ordering shaves the queue further\n");

  const double waste_unc = runs[0].result.waste();
  const double waste_fifo = runs[1].result.waste();
  const double waste_ord = runs[2].result.waste();
  bm.metric("waste_pct_uncoordinated", waste_unc * 100.0);
  bm.metric("waste_pct_fifo_coop", waste_fifo * 100.0);
  bm.metric("waste_pct_ordered_coop", waste_ord * 100.0);
  bm.metric("utilization_pct_uncoordinated",
            runs[0].result.utilization * 100.0);
  bm.metric("bounded_slowdown_ordered",
            runs[2].result.bounded_slowdown.mean());
  bm.metric("jobs_total", static_cast<std::int64_t>(wc.jobs) * 3);

  const bool coop_wins =
      waste_fifo < waste_unc || waste_ord < waste_unc;
  std::printf("verdict: %s (uncoordinated %.2f%%, fifo-coop %.2f%%, "
              "ordered-coop %.2f%% platform waste)\n",
              coop_wins ? "PASS" : "CHECK", waste_unc * 100.0,
              waste_fifo * 100.0, waste_ord * 100.0);
  return coop_wins ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("shared_platform",
                   "a month of space-shared production with interfering "
                   "checkpoints");
  h.args.add_option("width", "mesh columns", "33");
  h.args.add_option("height", "mesh rows", "16");
  h.args.add_option("njobs", "jobs in the month's trace", "1000");
  h.args.add_option("days", "target span of the arrival process", "30");
  h.args.add_option("node-mtbf-days", "per-node MTBF in days", "50");
  // Four disks puts the aggregate at ~4.4 MB/s — the sustained (not
  // peak) CFS rate of the era, and the saturated regime where
  // checkpoint ordering is worth having.
  h.args.add_option("io-disks", "CFS disk count (sets aggregate bandwidth)",
                    "4");
  h.args.add_option("seed", "workload seed", "1992");
  h.args.add_option("failure-seed", "fault-trace seed", "1");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
