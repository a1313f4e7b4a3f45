// Flit-network throughput bench: wall-clock cost of the fast schedule
// (active-set stepping + idle-cycle skip + wormhole fast-forward, row
// bands sharded across --threads) against the full-scan reference
// schedule, on identical traffic — the headline before/after exhibit
// for the flit hot-path overhaul and the parallel flit core
// (docs/PERF.md, docs/MODEL.md §11).
//
// Every point runs the sequential reference once, and every --threads
// entry must deliver every message at the identical cycle with
// identical traffic counters (the bench exits non-zero on any
// divergence, so the CI metrics run doubles as an equivalence and
// parallel-determinism check at bench scale). Wall times, flit-hops/s
// and speedups are host-dependent and therefore reported, never gated
// unless --require-speedup asks (bench/harness.hpp); the simulated
// spans and counters are deterministic and land in the --json metrics.
//
// Shapes: --shape WxH, plus the preset "columbia" (the 16K-node Columbia
// QCD machine of the HPCC program era, approximated as a 128x128 mesh).
// Sparse gaps make the reference run slow on large meshes, so sweeps
// there take --gap-us 20.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mesh/flit.hpp"
#include "mesh/traffic.hpp"

namespace {

using namespace hpccsim;
using namespace hpccsim::mesh;

// What a point's sequential reference run delivered: the oracle every
// --threads entry must reproduce exactly.
struct Oracle {
  std::vector<std::uint64_t> delivered;
  std::uint64_t cycle = 0, link_flits = 0, injected = 0, ejected = 0;
  double wall_s = 0.0;
};

void inject(FlitNetwork& net, const std::vector<TrafficRecord>& trace) {
  const double cyc_us = net.cycle_time().as_us();
  for (const auto& r : trace)
    net.inject(r.src, r.dst, r.bytes,
               static_cast<std::uint64_t>(r.depart.as_us() / cyc_us));
}

int exhibit(const ArgParser& args, bench::Harness& h) {
  std::string shape = args.str("shape");
  if (shape == "columbia") shape = "128x128";
  int width = 0, height = 0;
  if (std::sscanf(shape.c_str(), "%dx%d", &width, &height) != 2 ||
      width < 1 || height < 1)
    throw std::invalid_argument("bad --shape '" + args.str("shape") +
                                "' (want WxH or 'columbia')");
  const std::vector<std::int64_t> gaps = args.int_list("gap-us");
  if (gaps.empty())
    throw std::invalid_argument("--gap-us must name at least one gap");
  for (const std::int64_t gap : gaps)
    if (gap < 0)
      throw std::invalid_argument("--gap-us gaps must be >= 0, got " +
                                  args.str("gap-us"));
  const std::int32_t messages = bench::positive_int32(args, "messages");
  const std::int32_t bytes = bench::positive_int32(args, "bytes");

  const Mesh2D mesh(width, height);
  FlitParams fp;
  fp.routing = args.str("routing") == "west-first" ? RouteAlgo::WestFirst
                                                   : RouteAlgo::XY;
  const std::string threads = args.str("threads");
  std::printf("== flit throughput: %s mesh, %s routing, %s thread%s ==\n",
              mesh.describe().c_str(), route_algo_name(fp.routing),
              threads.c_str(), threads == "1" ? "" : "s");

  // Sparse -> saturating offered load; sparse points are where the
  // skip/fast-forward machinery pays, saturated points are where the
  // active set degenerates to (almost) every router and only the row
  // bands help.
  std::vector<std::vector<TrafficRecord>> traces;
  for (const std::int64_t gap_us : gaps) {
    TrafficConfig cfg;
    cfg.messages_per_node = messages;
    cfg.message_bytes = static_cast<Bytes>(bytes);
    cfg.mean_gap = sim::Time::us(static_cast<double>(gap_us));
    cfg.seed = 1992;
    traces.push_back(generate_traffic(mesh, cfg));
  }

  Table t({"threads", "gap (us)", "cycles", "link flits", "skipped",
           "ffwd flits", "fast (ms)", "ref (ms)", "fast Mhop/s", "speedup"});
  obs::BenchMetrics& bm = h.metrics;
  bm.config("width", static_cast<std::int64_t>(width));
  bm.config("height", static_cast<std::int64_t>(height));
  bm.config("messages", static_cast<std::int64_t>(messages));
  bm.config("bytes", static_cast<std::int64_t>(bytes));
  bm.config("routing", route_algo_name(fp.routing));

  std::vector<Oracle> oracles;
  double wall_fast = 0.0, wall_reference = 0.0;
  std::int64_t total_hops = 0;
  const int rc = h.thread_sweep([&](int nthreads) {
    bench::SweepRun run;
    // Counters land in the JSON from the last sweep entry. Scheduling
    // counters are deterministic per thread count only — the
    // determinism harness normalizes them (tests/compare_jobs.cmake).
    h.counters = obs::Registry();
    total_hops = 0;
    for (std::size_t g = 0; g < gaps.size(); ++g) {
      if (g == oracles.size()) {
        FlitNetwork ref(mesh, fp);
        inject(ref, traces[g]);
        obs::WallTimer tw;
        ref.run_reference();
        Oracle o{{}, ref.cycle(), ref.link_flits(), ref.injected_flits(),
                 ref.ejected_flits(), tw.elapsed_s()};
        wall_reference += o.wall_s;
        for (const auto& m : ref.messages())
          o.delivered.push_back(m.delivered_cycle);
        oracles.push_back(std::move(o));
        bm.add_sim_time(ref.cycle_time() * ref.cycle());
      }
      const Oracle& o = oracles[g];
      FlitNetwork fast(mesh, fp);
      fast.set_threads(nthreads);
      inject(fast, traces[g]);
      obs::WallTimer tw;
      fast.run();
      const double fast_s = tw.elapsed_s();
      run.wall_s += fast_s;

      // Equivalence cross-check at bench scale: any divergence is a bug
      // in the fast schedule or its sharding.
      const std::string at = " gap=" + std::to_string(gaps[g]);
      for (std::size_t i = 0; i < o.delivered.size(); ++i) {
        if (fast.messages()[i].delivered_cycle != o.delivered[i]) {
          run.diverged += at + " message " + std::to_string(i);
          break;
        }
      }
      if (fast.cycle() != o.cycle || fast.link_flits() != o.link_flits ||
          fast.injected_flits() != o.injected ||
          fast.ejected_flits() != o.ejected)
        run.diverged += at + " counters";

      obs::Registry point;
      fast.dump_counters(point);
      h.counters.merge(point);

      const auto link_flits = static_cast<std::int64_t>(fast.link_flits());
      total_hops += link_flits;
      t.add_row({Table::integer(nthreads), Table::integer(gaps[g]),
                 Table::integer(static_cast<std::int64_t>(fast.cycle())),
                 Table::integer(link_flits),
                 Table::integer(
                     static_cast<std::int64_t>(fast.skipped_cycles())),
                 Table::integer(
                     static_cast<std::int64_t>(fast.fastforwarded_flits())),
                 Table::num(fast_s * 1e3, 2), Table::num(o.wall_s * 1e3, 2),
                 Table::num(static_cast<double>(link_flits) / fast_s / 1e6, 1),
                 Table::num(o.wall_s / fast_s, 1)});
    }
    wall_fast = run.wall_s;
    return run;
  });
  h.print(t);
  std::printf("expected: sparse points fast-forward nearly everything "
              "(speedup bounded only by idle-window length); the "
              "reference is the same band step with a full scan, so "
              "saturated points run near 1x\n");

  bm.metric("link_flits", total_hops);
  bm.metric("wall_fast_s", wall_fast);
  bm.metric("wall_reference_s", wall_reference);
  bm.metric("speedup", wall_reference / wall_fast);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("flit_throughput",
                   "flit-network fast path vs reference wall throughput");
  h.args.add_option("shape", "mesh as WxH, or preset: columbia (=128x128)",
                    "16x16");
  h.add_thread_sweep_options("1");
  h.args.add_option("gap-us",
                    "comma list of mean inject gaps in us (small = "
                    "saturated)",
                    "50000,5000,20");
  h.args.add_option("messages", "messages per node per point", "40");
  h.args.add_option("bytes", "message size in bytes", "1024");
  h.args.add_option("routing", "xy | west-first", "xy");
  return h.run(argc, argv, exhibit);
}
