// Exhibit A12 (NREN extension): grid-scale data federation rush hour.
//
// nren_rush_hour times ~20 simultaneous pulls; this harness scales the
// question three orders of magnitude: a multi-region data federation
// serving around a million replica transfers through a daily rush hour,
// on the incremental fluid flow engine. Two replica-selection policies
// run as sweep points — widest path (best static pipe) and least loaded
// (spread the sources) — and the table compares cache behaviour,
// slowdown, and engine work.
//
// Determinism: each policy is an independent sweep point with its own
// Federation/engine/workload (same seed), run under parallel_for's
// static partition; registries merge in policy order, so stdout and
// --json are byte-identical at any --jobs value.
#include <cstdio>
#include <vector>

#include "grid/grid_sim.hpp"
#include "harness.hpp"
#include "util/parallel.hpp"

namespace {

using namespace hpccsim;
using namespace hpccsim::grid;

struct PolicyRun {
  Placement policy = Placement::WidestPath;
  GridSimulator::Stats stats;
  wan::FlowEngine::Stats engine;
  sim::Time end;
  obs::Registry registry;
};

int exhibit(const ArgParser& args, bench::Harness& h) {
  FederationConfig fc;
  fc.regions = static_cast<std::int32_t>(args.integer("regions"));
  fc.leaves_per_region = static_cast<std::int32_t>(args.integer("leaves"));

  WorkloadConfig wc;
  wc.seed = static_cast<std::uint64_t>(args.integer("seed"));
  wc.days = args.real("days");
  wc.requests_per_day = args.real("requests-per-day");
  wc.dataset_count = static_cast<std::int32_t>(args.integer("datasets"));
  wc.median_bytes = args.real("median-mb") * 1e6;
  wc.rush_amplitude = args.real("amplitude");

  obs::BenchMetrics& bm = h.metrics;
  bm.config("regions", args.integer("regions"));
  bm.config("leaves", args.integer("leaves"));
  bm.config("days", args.str("days"));
  bm.config("requests_per_day", args.str("requests-per-day"));
  bm.config("datasets", args.integer("datasets"));
  bm.config("seed", args.integer("seed"));
  bm.set_threads(args.jobs());

  const std::vector<Placement> policies = {Placement::WidestPath,
                                           Placement::LeastLoaded};
  std::vector<PolicyRun> runs(policies.size());
  parallel_for(policies.size(), args.jobs(), [&](std::size_t i) {
    PolicyRun& r = runs[i];
    r.policy = policies[i];
    const Federation fed(fc);
    WorkloadGenerator wl(wc, fed);
    GridSimulator sim(fed, r.policy);
    sim.run(wl);
    r.stats = sim.stats();
    r.engine = sim.engine_stats();
    r.end = sim.now();
    sim.export_counters(r.registry);
  });

  std::printf("== A12: %lld-site federation, ~%.1fk requests/day, "
              "rush amplitude %.1f ==\n",
              static_cast<long long>(fc.regions) * (fc.leaves_per_region + 1),
              wc.requests_per_day / 1000.0, wc.rush_amplitude);

  Table t({"policy", "requests", "hits", "coalesced", "flows", "GB moved",
           "mean slowdown", "active peak", "recomputes/flow"});
  std::int64_t flows_total = 0, requests_total = 0;
  obs::Registry& merged = h.counters;
  for (const PolicyRun& r : runs) {
    const auto& s = r.stats;
    flows_total += s.flows_completed;
    requests_total += s.requests;
    bm.add_sim_time(r.end);
    t.add_row({placement_name(r.policy), Table::integer(s.requests),
               Table::integer(s.cache_hits), Table::integer(s.coalesced),
               Table::integer(s.flows_completed),
               Table::num(static_cast<double>(s.bytes_moved) / 1e9, 1),
               Table::num(s.mean_slowdown(), 2),
               Table::integer(r.engine.active_peak),
               Table::num(static_cast<double>(r.engine.recomputes) /
                              static_cast<double>(s.flows_completed),
                          2)});
    merged.merge(r.registry);
  }
  h.print(t);
  std::printf("expected: least-loaded drains archives evenly but rides "
              "narrower pipes, so its slowdown sits above widest-path; "
              "caching pushes both policies' hit rates up as the day "
              "wears on\n");

  bm.metric("flows_total", flows_total);
  bm.metric("requests_total", requests_total);
  bm.metric("widest_mean_slowdown", runs[0].stats.mean_slowdown());
  bm.metric("least_loaded_mean_slowdown", runs[1].stats.mean_slowdown());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("grid_rush_hour",
                   "grid data federation under a diurnal rush hour");
  h.args.add_option("regions", "federation regions", "4");
  h.args.add_option("leaves", "leaves per region", "6");
  h.args.add_option("days", "simulated days", "1.25");
  h.args.add_option("requests-per-day", "mean requests per day", "600000");
  h.args.add_option("datasets", "dataset universe size", "60000");
  h.args.add_option("median-mb", "median dataset size (MB)", "3.5");
  h.args.add_option("amplitude", "rush-hour rate amplitude", "1.2");
  h.args.add_option("seed", "workload seed", "1992");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
