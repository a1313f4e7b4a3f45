// Exhibit A6 (testbed-operations extension): a consortium day at the
// Delta machine room.
//
// The paper's APPROACH slide — "establish high performance computing
// testbeds" used by "application software teams" — in operation means a
// batch queue feeding a space-shared mesh. This harness replays a
// representative day of consortium jobs (hero runs, production sweeps,
// debug jobs) under FCFS and EASY-backfill, reporting the metrics a
// testbed operator lived by. The day runs on the one job scheduler
// (sched::PlatformSimulator) with failures and checkpoints off: each job
// asks for a node count and the allocator shapes it at dispatch.
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "harness.hpp"
#include "sched/platform.hpp"
#include "sched/workload.hpp"

using namespace hpccsim;
using namespace hpccsim::sched;

int exhibit(const ArgParser& args, bench::Harness& h) {
  const mesh::Mesh2D delta(33, 16);
  // consortium_workload() requires a positive job count.
  const std::int32_t njobs = bench::positive_int32(args, "jobs");
  const std::vector<std::int64_t> seeds = args.int_list("seeds");
  if (seeds.empty())
    throw std::invalid_argument("--seeds must name at least one seed");
  std::printf("== A6: %d-job consortium day on the %s ==\n", njobs,
              delta.describe().c_str());

  obs::BenchMetrics& bm = h.metrics;
  bm.config("jobs", static_cast<std::int64_t>(njobs));
  bm.config("seeds", args.str("seeds"));
  obs::Registry& totals = h.counters;
  double bf_wait_sum = 0.0;
  int bf_runs = 0;
  // Registry::merge adds gauges, so utilization and mean wait are
  // averaged over the (policy, seed) points here and set once on the
  // merged registry. Every point runs the same job count, so the mean of
  // the points' mean waits is the mean wait over all their jobs.
  double util_sum = 0.0;
  double wait_sum = 0.0;

  Table t({"policy", "seed", "makespan (h)", "utilization", "mean wait (min)",
           "p-max wait (min)", "backfilled", "mean frag"});
  for (const auto policy :
       {SchedulePolicy::FCFS, SchedulePolicy::EasyBackfill}) {
    for (const std::int64_t seed : seeds) {
      PlatformConfig cfg;
      cfg.policy = policy;
      cfg.node_mtbf = sim::Time::zero();  // no fault trace, no checkpoints
      PlatformSimulator sim(delta, cfg);
      sim.submit(consortium_workload(njobs, delta.node_count(),
                                     static_cast<std::uint64_t>(seed)));
      const PlatformResult r = sim.run();
      bm.add_sim_time(r.makespan);
      obs::Registry reg;
      reg.counter("sched.backfilled").set(r.backfilled);
      reg.counter("sched.requeued").set(r.rollbacks);  // crash restarts
      reg.counter("sched.jobs").set(r.jobs);
      reg.counter("sched.makespan.ns")
          .set(static_cast<std::int64_t>(r.makespan.as_ns()));
      reg.set_gauge("sched.lost_node_seconds", r.lost_node_seconds);
      totals.merge(reg);
      util_sum += r.utilization;
      wait_sum += r.wait_minutes.mean();
      if (policy == SchedulePolicy::EasyBackfill) {
        bf_wait_sum += r.wait_minutes.mean();
        ++bf_runs;
      }
      t.add_row({policy_name(policy), Table::integer(seed),
                 Table::num(r.makespan.as_sec() / 3600.0, 2),
                 Table::num(r.utilization * 100.0, 1) + "%",
                 Table::num(r.wait_minutes.mean(), 1),
                 Table::num(r.wait_minutes.max(), 1),
                 Table::integer(r.backfilled),
                 Table::num(r.frag_samples.mean(), 3)});
    }
  }
  const auto points = static_cast<double>(2 * seeds.size());
  totals.set_gauge("sched.utilization", util_sum / points);
  totals.set_gauge("sched.wait_minutes.mean", wait_sum / points);
  h.print(t);
  std::printf("expected: EASY backfill cuts mean queue wait sharply at "
              "equal-or-better utilization — the operational argument "
              "that made backfill universal on space-shared machines\n");

  bm.metric("backfilled", totals.value("sched.backfilled"));
  bm.metric("easy_mean_wait_min", bf_runs ? bf_wait_sum / bf_runs : 0.0);
  return 0;
}

int main(int argc, char** argv) {
  bench::Harness h("testbed_ops", "batch scheduling on the space-shared Delta");
  h.args.add_option("jobs", "jobs in the day's workload", "150");
  h.args.add_option("seeds", "workload seeds to average over", "3,17,29");
  return h.run(argc, argv, exhibit);
}
