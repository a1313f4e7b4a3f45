// Exhibit F4: behaviour of the Delta's 2-D wormhole mesh under load.
//
// The paper's architecture claims rest on the mesh interconnect; this
// harness characterizes it the way the interconnect literature does:
// offered load vs delivered latency for the classic traffic patterns,
// on the full 33 x 16 mesh with the analytical contention model.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"
#include "mesh/analytical.hpp"
#include "mesh/flit.hpp"
#include "mesh/traffic.hpp"
#include "proc/machine.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

using namespace hpccsim;
using namespace hpccsim::mesh;

int exhibit(const ArgParser& args, bench::Harness& h) {
  const proc::MachineConfig mc = proc::touchstone_delta();
  const Mesh2D mesh = mc.mesh();
  const std::int32_t messages = bench::positive_int32(args, "messages");
  const std::int32_t bytes = bench::positive_int32(args, "bytes");
  const std::int32_t flit_msgs =
      bench::non_negative_int32(args, "flit-messages");
  std::printf("== F4: %s wormhole mesh, %llu-byte messages ==\n",
              mesh.describe().c_str(), static_cast<unsigned long long>(bytes));

  const std::vector<Pattern> patterns{Pattern::UniformRandom,
                                      Pattern::Transpose, Pattern::BitReversal,
                                      Pattern::HotSpot,
                                      Pattern::NearestNeighbour};
  const std::vector<double> gaps{4000.0, 2000.0, 1000.0, 500.0, 200.0, 50.0};

  // Each (pattern, gap) point builds its own traffic trace and network
  // model, so the grid parallelizes point-per-engine; rows are rendered
  // in order after the join (byte-identical at any --jobs).
  Table t({"pattern", "gap (us)", "offered MB/s/node", "mean lat (us)",
           "p95 lat (us)", "mean queue (us)"});
  std::vector<std::vector<std::string>> rows(patterns.size() * gaps.size());
  std::vector<sim::Time> spans(rows.size());
  std::vector<double> means(rows.size());
  parallel_for(rows.size(), args.jobs(), [&](std::size_t i) {
    const Pattern p = patterns[i / gaps.size()];
    const double gap_us = gaps[i % gaps.size()];
    TrafficConfig cfg;
    cfg.pattern = p;
    cfg.messages_per_node = messages;
    cfg.message_bytes = static_cast<Bytes>(bytes);
    cfg.mean_gap = sim::Time::us(gap_us);
    cfg.seed = 92;
    const auto trace = generate_traffic(mesh, cfg);

    AnalyticalMeshNet net(mesh, mc.net);
    RunningStat latency_us;
    LogHistogram hist;
    sim::Time span = sim::Time::zero();
    for (const auto& rec : trace) {
      const sim::Time arr = net.transfer(rec.src, rec.dst, rec.bytes,
                                         rec.depart);
      const double lat = (arr - rec.depart).as_us();
      latency_us.add(lat);
      hist.add(lat);
      span = std::max(span, arr);
    }
    spans[i] = span;
    means[i] = latency_us.mean();
    const double offered =
        static_cast<double>(cfg.message_bytes) / (gap_us * 1e-6) / 1e6;
    rows[i] = {pattern_name(p), Table::num(gap_us, 0),
               Table::num(offered, 2), Table::num(latency_us.mean(), 1),
               Table::num(hist.p95(), 1),
               Table::num(net.contention_mean_us(), 2)};
  });
  for (auto& row : rows) t.add_row(std::move(row));
  h.print(t);
  std::printf("expected shape: latency flat at low load, knee near channel "
              "saturation; hotspot saturates first, nearest-neighbour "
              "last; transpose/bit-reversal stress the bisection\n");

  obs::BenchMetrics& bm = h.metrics;
  bm.config("messages", static_cast<std::int64_t>(messages));
  bm.config("bytes", static_cast<std::int64_t>(bytes));
  double mean_max = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bm.add_sim_time(spans[i]);
    mean_max = std::max(mean_max, means[i]);
  }
  bm.metric("points", static_cast<std::int64_t>(rows.size()));
  bm.metric("mean_latency_us_max", mean_max);

  // Flit-fidelity section: the cycle-accurate wormhole simulator on the
  // full 33x16 mesh, in the low-load regime the analytical model claims
  // to cover (and where the LU workload operates). Feasible at this
  // scale only because of the fast schedule — with --flit-reference the
  // full-scan reference schedule runs on identical traffic, every
  // delivery is byte-compared, and the wall-clock speedup lands in the
  // JSON metrics (wall times never appear on stdout or in the default
  // JSON, keeping the determinism byte-compare clean).
  int rc = 0;
  if (flit_msgs > 0) {
    const std::vector<Pattern> fpatterns{Pattern::UniformRandom,
                                         Pattern::Transpose};
    const std::vector<double> fgaps{20000.0, 4000.0};
    FlitParams fp;
    fp.channel_bw = mc.net.channel_bw;
    const bool with_ref = args.flag("flit-reference");

    struct FlitPoint {
      std::vector<std::string> row;
      sim::Time span = sim::Time::zero();
      double ratio = 0.0;
      std::int64_t link_flits = 0;
      double wall_fast_s = 0.0;
      double wall_ref_s = 0.0;
      bool diverged = false;
      obs::Registry counters;
    };
    std::vector<FlitPoint> fpts(fpatterns.size() * fgaps.size());
    parallel_for(fpts.size(), args.jobs(), [&](std::size_t i) {
      const Pattern p = fpatterns[i / fgaps.size()];
      const double gap_us = fgaps[i % fgaps.size()];
      TrafficConfig cfg;
      cfg.pattern = p;
      cfg.messages_per_node = flit_msgs;
      cfg.message_bytes = static_cast<Bytes>(bytes);
      cfg.mean_gap = sim::Time::us(gap_us);
      cfg.seed = 92;
      const auto trace = generate_traffic(mesh, cfg);

      // Analytical answer on the identical trace, for the fidelity ratio.
      AnalyticalMeshNet anet(mesh, mc.net);
      RunningStat a_lat;
      for (const auto& r : trace)
        a_lat.add((anet.transfer(r.src, r.dst, r.bytes, r.depart) - r.depart)
                      .as_us());

      FlitNetwork fnet(mesh, fp);
      const double cyc_us = fnet.cycle_time().as_us();
      for (const auto& r : trace)
        fnet.inject(r.src, r.dst, r.bytes,
                    static_cast<std::uint64_t>(r.depart.as_us() / cyc_us));
      obs::WallTimer tw;
      fnet.run();
      fpts[i].wall_fast_s = tw.elapsed_s();

      if (with_ref) {
        FlitNetwork rnet(mesh, fp);
        for (const auto& r : trace)
          rnet.inject(r.src, r.dst, r.bytes,
                      static_cast<std::uint64_t>(r.depart.as_us() / cyc_us));
        tw.restart();
        rnet.run_reference();
        fpts[i].wall_ref_s = tw.elapsed_s();
        for (std::size_t m = 0; m < fnet.messages().size(); ++m)
          if (fnet.messages()[m].delivered_cycle !=
              rnet.messages()[m].delivered_cycle)
            fpts[i].diverged = true;
        if (fnet.link_flits() != rnet.link_flits() ||
            fnet.cycle() != rnet.cycle())
          fpts[i].diverged = true;
      }

      RunningStat f_lat;
      LogHistogram f_hist;
      for (std::size_t m = 0; m < fnet.messages().size(); ++m) {
        const double lat =
            static_cast<double>(fnet.latency_cycles(m)) * cyc_us;
        f_lat.add(lat);
        f_hist.add(lat);
      }
      fpts[i].span = fnet.cycle_time() * fnet.cycle();
      fpts[i].ratio = f_lat.mean() / a_lat.mean();
      fpts[i].link_flits = static_cast<std::int64_t>(fnet.link_flits());
      fnet.dump_counters(fpts[i].counters);
      fpts[i].row = {pattern_name(p), Table::num(gap_us, 0),
                     Table::num(f_lat.mean(), 1), Table::num(f_hist.p95(), 1),
                     Table::num(a_lat.mean(), 1),
                     Table::num(fpts[i].ratio, 2)};
    });

    Table ft({"pattern", "gap (us)", "flit mean (us)", "flit p95 (us)",
              "analytical mean (us)", "flit/analytical"});
    obs::Registry& totals = h.counters;
    double ratio_max = 0.0, wall_fast = 0.0, wall_ref = 0.0;
    std::int64_t flit_hops = 0;
    for (auto& pt : fpts) {
      ft.add_row(std::move(pt.row));
      bm.add_sim_time(pt.span);
      ratio_max = std::max(ratio_max, pt.ratio);
      flit_hops += pt.link_flits;
      wall_fast += pt.wall_fast_s;
      wall_ref += pt.wall_ref_s;
      totals.merge(pt.counters);
      if (pt.diverged) {
        std::fprintf(stderr,
                     "FATAL: flit fast schedule diverged from reference\n");
        rc = 1;
      }
    }
    std::printf("-- flit fidelity: cycle-accurate wormhole cross-check, "
                "%d msgs/node --\n", flit_msgs);
    h.print(ft);
    std::printf("expected: flit/analytical within ~2x at these loads; the "
                "analytical model is optimistic in the sparse regime (it "
                "charges pure serialization + per-hop latency, with no "
                "injection streaming or router pipeline fill), so the "
                "ratio sits modestly above 1\n");
    bm.metric("flit_points", static_cast<std::int64_t>(fpts.size()));
    bm.metric("flit_link_flits", flit_hops);
    bm.metric("flit_ratio_max", ratio_max);
    if (with_ref) {
      bm.metric("flit_wall_fast_s", wall_fast);
      bm.metric("flit_wall_reference_s", wall_ref);
      bm.metric("flit_speedup", wall_ref / wall_fast);
    }
  }
  return rc;
}

int main(int argc, char** argv) {
  bench::Harness h("fig4_mesh_traffic", "Delta mesh latency under load");
  h.args.add_option("messages", "messages per node per point", "200");
  h.args.add_option("bytes", "message size in bytes", "1024");
  h.args.add_option("flit-messages",
                    "messages per node for the flit-fidelity section "
                    "(0 disables)", "20");
  h.args.add_flag("flit-reference",
                  "also run the full-scan reference flit schedule, verify "
                  "byte-identical delivery, and report wall-clock speedup");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
