// Ablation A8: deterministic XY vs turn-model adaptive routing.
//
// The Delta's mesh chips routed XY (simple, deterministic); the
// academic literature of the day argued for adaptive routers. The
// flit-level simulator implements both (west-first turn model), so the
// trade can be measured: adaptivity helps adversarial/hot traffic and
// costs nothing on benign patterns.
#include <cstdio>

#include "harness.hpp"
#include "mesh/flit.hpp"
#include "mesh/traffic.hpp"
#include "util/stats.hpp"

namespace {

using namespace hpccsim;
using namespace hpccsim::mesh;

double mean_latency_us(const Mesh2D& mesh, RouteAlgo algo, Pattern pattern,
                       double gap_us, std::uint64_t seed) {
  TrafficConfig cfg;
  cfg.pattern = pattern;
  cfg.messages_per_node = 40;
  cfg.message_bytes = 256;
  cfg.mean_gap = sim::Time::us(gap_us);
  cfg.hotspot_fraction = 0.3;
  cfg.seed = seed;
  FlitParams fp;
  fp.routing = algo;
  FlitNetwork net(mesh, fp);
  const double cyc_us = net.cycle_time().as_us();
  for (const auto& t : generate_traffic(mesh, cfg))
    net.inject(t.src, t.dst, t.bytes,
               static_cast<std::uint64_t>(t.depart.as_us() / cyc_us));
  net.run();
  RunningStat lat;
  for (std::size_t i = 0; i < net.messages().size(); ++i)
    lat.add(static_cast<double>(net.latency_cycles(i)) * cyc_us);
  return lat.mean();
}

int exhibit(const ArgParser& args, bench::Harness& h) {
  const Mesh2D mesh(static_cast<std::int32_t>(args.integer("width")),
                    static_cast<std::int32_t>(args.integer("height")));
  std::printf("== A8: routing ablation on a %s ==\n",
              mesh.describe().c_str());
  Table t({"pattern", "gap (us)", "xy mean (us)", "west-first mean (us)",
           "adaptive gain"});
  double xy_total_us = 0.0, wf_total_us = 0.0;
  for (const Pattern p : {Pattern::UniformRandom, Pattern::Transpose,
                          Pattern::HotSpot}) {
    for (const double gap : {300.0, 80.0, 40.0}) {
      const double xy = mean_latency_us(mesh, RouteAlgo::XY, p, gap, 77);
      const double wf =
          mean_latency_us(mesh, RouteAlgo::WestFirst, p, gap, 77);
      xy_total_us += xy;
      wf_total_us += wf;
      t.add_row({pattern_name(p), Table::num(gap, 0), Table::num(xy, 1),
                 Table::num(wf, 1), Table::percent(xy / wf - 1.0, 1)});
    }
  }
  h.print(t);
  std::printf("expected (and classic in the literature): near-zero "
              "difference at low load; large adaptive gains on transpose "
              "(it spreads the bisection hotspots XY creates); no gain on "
              "hotspot traffic (the ejection port is the bottleneck, no "
              "route avoids it); and a LOSS on deeply saturated uniform "
              "traffic, where adaptive misrouting spreads congestion\n");

  obs::BenchMetrics& bm = h.metrics;
  bm.config("width", args.integer("width"));
  bm.config("height", args.integer("height"));
  // Sum of per-point mean latencies: a deterministic simulated quantity
  // for the CI drift gate (this bench has no single engine clock).
  bm.add_sim_time(sim::Time::us(xy_total_us + wf_total_us));
  bm.metric("xy_mean_us_total", xy_total_us);
  bm.metric("west_first_mean_us_total", wf_total_us);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablate_routing", "XY vs west-first adaptive routing");
  h.args.add_option("width", "mesh width", "8");
  h.args.add_option("height", "mesh height", "8");
  return h.run(argc, argv, exhibit);
}
