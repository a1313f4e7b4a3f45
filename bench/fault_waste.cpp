// Exhibit F1 (fault extension): the checkpoint-interval U-curve.
//
// A machine that fails every few hours and checkpoints to a few MB/s of
// aggregate disk wastes time two ways: checkpoint too often and the
// overhead dominates; too rarely and every crash discards a long tail
// of work. Sweeping the interval reproduces the classic U-shaped waste
// curve, and the simulated minimum should land near Young's sqrt(2CM)
// and Daly's refinement — the closed forms operators actually used.
//
// Determinism: the fault trace is a pure function of the seed (common
// random numbers — every interval sees the *same* crashes), and each
// sweep point runs its own engine, so output is byte-identical at any
// --jobs.
#include <cmath>
#include <cstdio>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "fault/stats.hpp"
#include "harness.hpp"
#include "io/cfs.hpp"
#include "proc/machine.hpp"
#include "util/parallel.hpp"

namespace {

using namespace hpccsim;
using sim::Time;

struct SweepPoint {
  Time interval;
  fault::WasteReport report;
  obs::Registry counters;
};

struct Scenario {
  proc::MachineConfig mc;
  fault::FaultConfig fc;
  fault::CheckpointConfig cc;
  io::CfsConfig io;
  Time machine_mtbf;    // node_mtbf / nodes
  Time est_checkpoint;  // closed-form C for the Young/Daly seed
};

Scenario build_scenario(std::int64_t nodes, double mtbf_hours,
                        double work_hours, std::uint64_t seed,
                        bool weibull) {
  Scenario s;
  s.mc = proc::touchstone_delta().with_nodes(
      static_cast<std::int32_t>(nodes));

  s.fc.seed = seed;
  s.fc.node_mtbf = Time::sec(mtbf_hours * 3600.0);
  s.fc.node_repair = Time::sec(120.0);
  // Horizon: generously past any plausible completion; the run disarms
  // the injector once the job commits.
  s.fc.horizon = Time::sec(work_hours * 3600.0 * 4.0);
  if (weibull) s.fc.dist = fault::Distribution::Weibull;

  s.cc.total_work = Time::sec(work_hours * 3600.0);
  s.cc.bytes_per_node = 16 * MiB;

  s.machine_mtbf =
      Time::sec(s.fc.node_mtbf.as_sec() / static_cast<double>(nodes));
  return s;
}

fault::WasteReport run_point(const Scenario& s, Time interval,
                             obs::Registry& reg) {
  nx::NxMachine machine(s.mc);
  fault::FaultInjector injector(machine, s.fc);
  io::Cfs cfs(machine, s.io);
  fault::CheckpointConfig cc = s.cc;
  cc.interval = interval;
  fault::CheckpointedRun run(machine, injector, &cfs, cc);
  run.execute();
  injector.export_counters(reg);
  cfs.export_counters(reg);
  run.export_counters(reg);
  return run.report();
}

int exhibit(const ArgParser& args, bench::Harness& h) {
  Scenario s = build_scenario(args.integer("nodes"), args.real("mtbf-hours"),
                              args.real("work-hours"),
                              static_cast<std::uint64_t>(args.integer("seed")),
                              args.flag("weibull"));

  // Closed-form seed for the sweep grid: estimate C from the CFS
  // geometry, then bracket the Daly optimum geometrically.
  {
    nx::NxMachine probe(s.mc);
    io::Cfs cfs(probe, s.io);
    s.est_checkpoint = cfs.estimate_write_time(
        s.cc.bytes_per_node * static_cast<Bytes>(s.mc.node_count()));
  }
  const Time daly = fault::daly_interval(s.est_checkpoint, s.machine_mtbf);
  const Time young = fault::young_interval(s.est_checkpoint, s.machine_mtbf);

  std::printf("== F1: waste vs checkpoint interval ==\n");
  std::printf(
      "%d nodes, per-node MTBF %.1f h (machine MTBF %.0f s), %s lifetimes\n"
      "work %.0f h/node, checkpoint %s/node, est. C = %.1f s\n"
      "Young sqrt(2CM) = %.0f s, Daly = %.0f s\n",
      s.mc.node_count(), s.fc.node_mtbf.as_sec() / 3600.0,
      s.machine_mtbf.as_sec(), fault::distribution_name(s.fc.dist),
      s.cc.total_work.as_sec() / 3600.0,
      format_bytes(s.cc.bytes_per_node).c_str(), s.est_checkpoint.as_sec(),
      young.as_sec(), daly.as_sec());

  const std::vector<double> grid = {0.4, 0.55, 0.7, 0.85, 1.0,
                                    1.18, 1.4, 1.8, 2.5};
  std::vector<SweepPoint> points(grid.size());
  parallel_for(points.size(), args.jobs(), [&](std::size_t i) {
    points[i].interval = Time::sec(daly.as_sec() * grid[i]);
    points[i].report = run_point(s, points[i].interval, points[i].counters);
  });

  Table t({"interval (s)", "elapsed (h)", "waste %", "useful %", "ckpt %",
           "lost %", "recov %", "ckpts", "restores", "crashes",
           "model waste %"});
  std::size_t best = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = points[i].report;
    if (r.waste_fraction() <
        points[best].report.waste_fraction())
      best = i;
    auto pct = [&](Time x) {
      return Table::num(100.0 * x.as_sec() / r.elapsed.as_sec(), 1);
    };
    t.add_row(
        {Table::num(points[i].interval.as_sec(), 0),
         Table::num(r.elapsed.as_sec() / 3600.0, 2),
         Table::num(100.0 * r.waste_fraction(), 1), pct(r.useful),
         pct(r.checkpoint), pct(r.lost),
         pct(r.recovery_wait + r.restore),
         Table::integer(static_cast<std::int64_t>(r.checkpoints)),
         Table::integer(static_cast<std::int64_t>(r.restores)),
         Table::integer(static_cast<std::int64_t>(r.crashes)),
         Table::num(100.0 * fault::modeled_waste(
                                points[i].interval, s.est_checkpoint,
                                s.machine_mtbf, s.est_checkpoint),
                    1)});
  }
  h.print(t);

  const Time best_i = points[best].interval;
  const double rel =
      std::abs(best_i.as_sec() - daly.as_sec()) / daly.as_sec();
  std::printf(
      "simulated minimum at %.0f s (%.1f%% waste); Daly predicts %.0f s "
      "(%+.0f%%)\n",
      best_i.as_sec(), 100.0 * points[best].report.waste_fraction(),
      daly.as_sec(), 100.0 * (best_i.as_sec() / daly.as_sec() - 1.0));
  const bool u_shape =
      points.front().report.waste_fraction() >
          points[best].report.waste_fraction() &&
      points.back().report.waste_fraction() >
          points[best].report.waste_fraction();
  std::printf("verdict: %s (U-shape %s, minimum within %.0f%% of Daly)\n",
              u_shape && rel <= 0.20 ? "PASS" : "CHECK",
              u_shape ? "yes" : "no", rel * 100.0);

  obs::BenchMetrics& bm = h.metrics;
  bm.config("nodes", args.integer("nodes"));
  bm.config("mtbf_hours", args.real("mtbf-hours"));
  bm.config("work_hours", args.real("work-hours"));
  bm.config("seed", args.integer("seed"));
  obs::Registry& totals = h.counters;
  for (const SweepPoint& p : points) {
    bm.add_sim_time(p.report.elapsed);
    totals.merge(p.counters);
  }
  bm.metric("best_interval_s", best_i.as_sec());
  bm.metric("waste_min_pct", 100.0 * points[best].report.waste_fraction());
  bm.metric("crashes", totals.value("fault.crashes"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("fault_waste",
                   "waste vs checkpoint interval under fault injection");
  h.args.add_option("nodes", "machine size (mesh nodes)", "16");
  h.args.add_option("mtbf-hours", "per-node MTBF in hours", "12");
  h.args.add_option("work-hours", "application work per node, hours", "48");
  h.args.add_option("seed", "fault trace seed", "1");
  h.args.add_flag("weibull", "Weibull(0.7) lifetimes instead of exponential");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
