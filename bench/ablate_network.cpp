// Ablation A3: how much does the interconnect matter to the LINPACK
// result?
//
// Re-runs the modeled LU while swapping out aspects of the Delta's
// communication system: an ideal contention-free crossbar, doubled /
// halved channel bandwidth, and zero messaging-software overhead. The
// spread between rows quantifies what actually limits the 13 GFLOPS
// figure (spoiler: software overhead and panel-phase latency more than
// raw link bandwidth).
#include <cstdio>

#include "harness.hpp"
#include "linalg/distlu.hpp"
#include "proc/machine.hpp"
#include "util/parallel.hpp"

namespace {

using namespace hpccsim;

struct CellResult {
  double gflops = 0.0;
  sim::Time elapsed;
};

CellResult run_cell(const proc::MachineConfig& mc, nx::NetKind net,
                    std::int64_t n) {
  nx::NxMachine machine(mc, net);
  linalg::LuConfig cfg = linalg::lu_config_for(machine, n, 64);
  const linalg::LuResult r = linalg::run_distributed_lu(machine, cfg);
  return {r.gflops, r.elapsed};
}

int exhibit(const ArgParser& args, bench::Harness& h) {
  const proc::MachineConfig base = proc::touchstone_delta();
  struct Variant {
    const char* name;
    proc::MachineConfig mc;
    nx::NetKind net;
  };
  proc::MachineConfig fast_links = base;
  fast_links.net.channel_bw = mb_per_s(50.0);
  proc::MachineConfig slow_links = base;
  slow_links.net.channel_bw = mb_per_s(12.5);
  proc::MachineConfig no_sw = base;
  no_sw.send_overhead = sim::Time::zero();
  no_sw.recv_overhead = sim::Time::zero();

  const Variant variants[] = {
      {"delta (baseline)", base, nx::NetKind::AnalyticalMesh},
      {"ideal crossbar", base, nx::NetKind::Crossbar},
      {"2x channel bw", fast_links, nx::NetKind::AnalyticalMesh},
      {"0.5x channel bw", slow_links, nx::NetKind::AnalyticalMesh},
      {"zero sw overhead", no_sw, nx::NetKind::AnalyticalMesh},
  };

  std::printf("== A3: interconnect ablation, 528-node LU ==\n");
  std::vector<std::string> header{"variant"};
  const auto orders = args.int_list("n");
  for (const auto n : orders)
    header.push_back("GFLOPS @ n=" + std::to_string(n));
  Table t(std::move(header));
  // Every (variant, n) cell is an independent LU simulation: flatten the
  // grid into one parallel_for and assemble rows after the join.
  const std::size_t n_variants = std::size(variants);
  std::vector<CellResult> cells(n_variants * orders.size());
  parallel_for(cells.size(), args.jobs(), [&](std::size_t i) {
    const Variant& v = variants[i / orders.size()];
    cells[i] = run_cell(v.mc, v.net, orders[i % orders.size()]);
  });
  for (std::size_t vi = 0; vi < n_variants; ++vi) {
    std::vector<std::string> row{variants[vi].name};
    for (std::size_t oi = 0; oi < orders.size(); ++oi)
      row.push_back(Table::num(cells[vi * orders.size() + oi].gflops, 2));
    t.add_row(std::move(row));
  }
  h.print(t);
  std::printf("expected: removing the messaging-software overhead helps "
              "most at small n (latency-bound panels); channel bandwidth "
              "matters more as n grows (panel/U broadcasts); the ideal "
              "crossbar bounds the total network contribution\n");

  obs::BenchMetrics& bm = h.metrics;
  bm.config("n", args.str("n"));
  for (const CellResult& c : cells) bm.add_sim_time(c.elapsed);
  // Headline: baseline vs ideal-crossbar GFLOPS at the largest n.
  bm.metric("baseline_gflops", cells[orders.size() - 1].gflops);
  bm.metric("crossbar_gflops", cells[2 * orders.size() - 1].gflops);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablate_network", "interconnect ablation for the LU run");
  h.args.add_option("n", "problem orders", "5000,15000,25000");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
