// Ablation A1: is the cheap analytical link-reservation model a faithful
// stand-in for the flit-level wormhole simulator?
//
// Methodology: generate identical traffic traces, run both models, and
// compare mean/p95 latency per pattern and load. The analytical model is
// what the LINPACK reproduction runs on (flit-level at 528 nodes x 3.4M
// messages would be prohibitive), so its agreement here is what makes
// the F1 result credible.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"
#include "mesh/analytical.hpp"
#include "mesh/flit.hpp"
#include "mesh/traffic.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

using namespace hpccsim;
using namespace hpccsim::mesh;

int exhibit(const ArgParser& args, bench::Harness& h) {
  const Mesh2D mesh(static_cast<std::int32_t>(args.integer("width")),
                    static_cast<std::int32_t>(args.integer("height")));
  AnalyticalParams ap;           // Delta-like link speed
  FlitParams fp;
  fp.channel_bw = ap.channel_bw;

  std::printf("== A1: contention-model ablation on a %s ==\n",
              mesh.describe().c_str());
  Table t({"pattern", "gap (us)", "analytical mean (us)", "flit mean (us)",
           "ratio", "analytical p95", "flit p95"});

  // Each (pattern, gap) point runs both models on its own trace — fully
  // independent, so the grid parallelizes; rows render after the join.
  const std::vector<Pattern> patterns{Pattern::UniformRandom,
                                      Pattern::Transpose, Pattern::HotSpot};
  const std::vector<double> gaps{500.0, 100.0, 40.0};
  std::vector<std::vector<std::string>> rows(patterns.size() * gaps.size());
  std::vector<double> ratios(rows.size());
  std::vector<std::int64_t> flits(rows.size());
  std::vector<sim::Time> spans(rows.size());
  parallel_for(rows.size(), args.jobs(), [&](std::size_t idx) {
    const Pattern p = patterns[idx / gaps.size()];
    const double gap_us = gaps[idx % gaps.size()];
    TrafficConfig cfg;
    cfg.pattern = p;
    cfg.messages_per_node = static_cast<std::int32_t>(args.integer("messages"));
    cfg.message_bytes = static_cast<Bytes>(args.integer("bytes"));
    cfg.mean_gap = sim::Time::us(gap_us);
    cfg.seed = 1992;
    const auto trace = generate_traffic(mesh, cfg);

    // Analytical model.
    AnalyticalMeshNet anet(mesh, ap);
    RunningStat a_lat;
    LogHistogram a_hist;
    sim::Time span = sim::Time::zero();
    for (const auto& r : trace) {
      const sim::Time arr = anet.transfer(r.src, r.dst, r.bytes, r.depart);
      a_lat.add((arr - r.depart).as_us());
      a_hist.add((arr - r.depart).as_us());
      span = std::max(span, arr);
    }
    spans[idx] = span;

    // Flit-level model on the identical trace.
    FlitNetwork fnet(mesh, fp);
    const double cyc_us = fnet.cycle_time().as_us();
    for (const auto& r : trace)
      fnet.inject(r.src, r.dst, r.bytes,
                  static_cast<std::uint64_t>(r.depart.as_us() / cyc_us));
    fnet.run();
    RunningStat f_lat;
    LogHistogram f_hist;
    for (std::size_t i = 0; i < fnet.messages().size(); ++i) {
      const double lat =
          static_cast<double>(fnet.latency_cycles(i)) * cyc_us;
      f_lat.add(lat);
      f_hist.add(lat);
    }

    rows[idx] = {pattern_name(p), Table::num(gap_us, 0),
                 Table::num(a_lat.mean(), 1), Table::num(f_lat.mean(), 1),
                 Table::num(a_lat.mean() / f_lat.mean(), 2),
                 Table::num(a_hist.p95(), 1), Table::num(f_hist.p95(), 1)};
    ratios[idx] = a_lat.mean() / f_lat.mean();
    flits[idx] = fnet.link_flits();
  });
  for (auto& row : rows) t.add_row(std::move(row));
  h.print(t);
  std::printf("expected: agreement within ~1.5x at low load and ~2x deep in "
              "saturation; right at the saturation knee the analytical "
              "model is pessimistic for uniform traffic (it has no router "
              "buffering) and optimistic for hotspot (no tree saturation). "
              "The LU workload operates in the low-load regime, where "
              "agreement is tightest.\n");

  // Full-Delta validation point: the same ablation at the machine's real
  // scale — 16 rows x 36 columns of i860 nodes — at the low load the
  // LINPACK reproduction actually offers. Running the flit simulator at
  // 576 nodes was exactly what the fast schedule was built for.
  const auto delta_msgs =
      static_cast<std::int32_t>(args.integer("delta-messages"));
  double delta_ratio = 0.0;
  sim::Time delta_span = sim::Time::zero();
  if (delta_msgs > 0) {
    const Mesh2D delta(36, 16);
    TrafficConfig cfg;
    cfg.pattern = Pattern::UniformRandom;
    cfg.messages_per_node = delta_msgs;
    cfg.message_bytes = static_cast<Bytes>(args.integer("bytes"));
    cfg.mean_gap = sim::Time::us(4000.0);
    cfg.seed = 1992;
    const auto trace = generate_traffic(delta, cfg);

    AnalyticalMeshNet anet(delta, ap);
    RunningStat a_lat;
    for (const auto& r : trace)
      a_lat.add((anet.transfer(r.src, r.dst, r.bytes, r.depart) - r.depart)
                    .as_us());

    FlitNetwork fnet(delta, fp);
    const double cyc_us = fnet.cycle_time().as_us();
    for (const auto& r : trace)
      fnet.inject(r.src, r.dst, r.bytes,
                  static_cast<std::uint64_t>(r.depart.as_us() / cyc_us));
    fnet.run();
    RunningStat f_lat;
    for (std::size_t i = 0; i < fnet.messages().size(); ++i)
      f_lat.add(static_cast<double>(fnet.latency_cycles(i)) * cyc_us);

    delta_ratio = a_lat.mean() / f_lat.mean();
    delta_span = fnet.cycle_time() * fnet.cycle();
    std::printf("full Delta (%s, uniform, gap 4000 us, %d msgs/node): "
                "analytical %.1f us vs flit %.1f us, ratio %.2f\n",
                delta.describe().c_str(), delta_msgs, a_lat.mean(),
                f_lat.mean(), delta_ratio);
  }

  obs::BenchMetrics& bm = h.metrics;
  bm.config("width", args.integer("width"));
  bm.config("height", args.integer("height"));
  bm.config("messages", args.integer("messages"));
  bm.config("bytes", args.integer("bytes"));
  double ratio_max = 0.0;
  std::int64_t total_flits = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ratio_max = std::max(ratio_max, ratios[i]);
    total_flits += flits[i];
    bm.add_sim_time(spans[i]);
  }
  bm.metric("ratio_max", ratio_max);
  bm.metric("link_flits", total_flits);
  bm.metric("points", static_cast<std::int64_t>(rows.size()));
  if (delta_msgs > 0) {
    bm.add_sim_time(delta_span);
    bm.metric("delta_ratio", delta_ratio);
  }
  return 0;
}

int main(int argc, char** argv) {
  bench::Harness h("ablate_contention",
                   "analytical vs flit-level mesh model agreement");
  h.args.add_option("width", "mesh width", "8");
  h.args.add_option("height", "mesh height", "8");
  h.args.add_option("messages", "messages per node", "60");
  h.args.add_option("bytes", "message size", "512");
  h.args.add_option("delta-messages",
                    "messages per node for the full-Delta (16x36) validation "
                    "point (0 disables)", "20");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
