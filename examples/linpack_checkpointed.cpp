// The paper's hero run on a machine that actually fails.
//
// The 13-GFLOPS order-25,000 LINPACK run takes ~813 simulated seconds
// on the 528-node Delta; a production campaign chains many of them. On
// real hardware of the era nodes died mid-campaign, and the only
// defence was coordinated checkpointing through the CFS — at a few
// MB/s of aggregate disk. This example runs such a campaign under
// seeded fault injection with checkpoint/restart at the Daly-optimal
// interval, and reports what the machine's 13-GFLOPS headline turns
// into once failures and checkpoint overhead take their cut.
//
//   $ ./linpack_checkpointed --runs 10 --mtbf-days 15
//       [--trace trace.json]  # Chrome trace: open in ui.perfetto.dev
//       [--json metrics.json] # machine-readable metrics
#include <cmath>
#include <cstdio>

#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "fault/stats.hpp"
#include "io/cfs.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/machine.hpp"
#include "util/cli.hpp"

using namespace hpccsim;
using sim::Time;

int main(int argc, char** argv) {
  ArgParser args("linpack_checkpointed",
                 "a LINPACK campaign under fault injection with "
                 "checkpoint/restart through the CFS");
  args.add_option("runs", "LINPACK runs in the campaign", "10");
  args.add_option("mtbf-days", "per-node MTBF in days", "15");
  args.add_trace_option();
  args.add_json_option();
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (args.flag("help")) {
    std::printf("%s", args.usage().c_str());
    return 0;
  }
  const int runs = static_cast<int>(args.integer("runs"));
  const double mtbf_days = args.real("mtbf-days");

  const proc::MachineConfig mc = proc::touchstone_delta();
  const double lu_seconds = 813.0;  // the modeled order-25,000 LU
  const Time work = Time::sec(lu_seconds * runs);
  const Bytes matrix = 25000ULL * 25000ULL * 8;  // 5 GB
  const Bytes per_node = matrix / static_cast<Bytes>(mc.node_count());

  nx::NxMachine machine(mc);

  // Opt-in Chrome tracing: checkpoint epochs, crashes, and rollbacks
  // land on per-rank and machine-control tracks.
  obs::TraceWriter trace;
  if (!args.trace_path().empty()) machine.set_trace_writer(&trace);

  fault::FaultConfig fc;
  fc.seed = 1992;
  fc.node_mtbf = Time::sec(mtbf_days * 86400.0);
  fc.node_repair = Time::sec(300.0);
  fc.horizon = Time::sec(work.as_sec() * 6.0);
  fault::FaultInjector injector(machine, fc);

  io::Cfs cfs(machine);  // disks on the mesh's east edge column
  const Time c_est = cfs.estimate_write_time(matrix);
  const Time mtbf_machine =
      Time::sec(fc.node_mtbf.as_sec() / mc.node_count());
  const Time interval = fault::daly_interval(c_est, mtbf_machine);

  fault::CheckpointConfig cc;
  cc.total_work = work;
  cc.interval = interval;
  cc.bytes_per_node = per_node;
  fault::CheckpointedRun run(machine, injector, &cfs, cc);
  run.execute();
  const fault::WasteReport& r = run.report();

  std::printf("machine        : %s, %d nodes, %d CFS disks\n",
              mc.name.c_str(), mc.node_count(), cfs.disk_count());
  std::printf("campaign       : %d LINPACK runs = %.0f s of work\n", runs,
              work.as_sec());
  std::printf("faults         : per-node MTBF %.0f days -> machine MTBF "
              "%.0f s; %llu crashes hit the campaign\n",
              mtbf_days, mtbf_machine.as_sec(),
              static_cast<unsigned long long>(r.crashes));
  std::printf("checkpointing  : %s/node every %.0f s (Daly; est. C = %.0f "
              "s via CFS)\n",
              format_bytes(per_node).c_str(), interval.as_sec(),
              c_est.as_sec());
  std::printf("\n%s\n", r.str().c_str());

  const double headline = 13.0;  // GFLOPS the paper claims for one run
  std::printf("efficiency     : %.1f%% of the machine's time was LINPACK\n",
              100.0 * r.efficiency());
  std::printf("effective rate : %.1f GFLOPS sustained (headline %.1f)\n",
              headline * r.efficiency(), headline);

  // Without checkpointing a crash restarts the whole campaign; for
  // exponential failures the expected completion is M (e^{W/M} - 1).
  const double m = mtbf_machine.as_sec();
  const double naive = m * (std::exp(work.as_sec() / m) - 1.0);
  std::printf("no-checkpoint  : expected completion %.2e s (%.1fx the "
              "checkpointed run)\n",
              naive, naive / r.elapsed.as_sec());

  if (!args.trace_path().empty()) {
    if (trace.write_file(args.trace_path()))
      std::printf("trace          : %zu events -> %s (load in "
                  "ui.perfetto.dev)\n",
                  trace.event_count(), args.trace_path().c_str());
  }

  obs::BenchMetrics bm("linpack_checkpointed");
  bm.config("runs", static_cast<std::int64_t>(runs));
  bm.config("mtbf_days", mtbf_days);
  bm.add_sim_time(r.elapsed);
  bm.metric("crashes", static_cast<std::int64_t>(r.crashes));
  bm.metric("efficiency", r.efficiency());
  obs::Registry reg;
  injector.export_counters(reg);
  cfs.export_counters(reg);
  run.export_counters(reg);
  reg.merge(machine.snapshot_counters());
  bm.attach_counters(reg);
  bm.write_file(args.json_path());
  return 0;
}
