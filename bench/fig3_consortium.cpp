// Exhibit F3: the Delta Consortium network figure ("CSC Network
// Connections": NSFnet T1 1.5 Mbit/s, NSFnet T3 45 Mbit/s, ESnet T1,
// CASA HIPPI/SONET 800 Mbit/s, regional T1 and 56 kbit/s tails).
//
// The harness reproduces the figure's content as tables: the link
// inventory, and the time for every partner to pull a dataset off the
// Delta at Caltech — which is what consortium membership was for.
#include <cstdio>

#include "harness.hpp"
#include "util/units.hpp"
#include "wan/consortium.hpp"

using namespace hpccsim;

int exhibit(const ArgParser& args, bench::Harness& h) {
  const wan::Wan net = wan::consortium_network();

  std::printf("== F3: CSC network connections ==\n");
  Table links({"site A", "site B", "service", "bandwidth"});
  for (const auto& l : net.links()) {
    links.add_row({net.site_name(l.a), net.site_name(l.b),
                   wan::link_type_name(l.type),
                   format_rate(wan::link_bandwidth(l.type))});
  }
  h.print(links);

  obs::BenchMetrics& bm = h.metrics;
  bm.config("mb", args.str("mb"));
  std::int64_t transfers = 0;

  const wan::SiteId delta = net.site_by_name("Caltech-Delta");
  for (const std::int64_t mb : args.int_list("mb")) {
    const Bytes bytes = static_cast<Bytes>(mb) * 1000 * 1000;
    std::printf("== pulling a %lld MB dataset from the Delta ==\n",
                static_cast<long long>(mb));
    Table t({"partner", "hops", "bottleneck", "transfer time",
             "effective Mbit/s"});
    for (wan::SiteId s = 0; s < net.site_count(); ++s) {
      if (s == delta) continue;
      const auto r = net.transfer(delta, s, bytes);
      if (!r) continue;
      bm.add_sim_time(r->duration);
      ++transfers;
      t.add_row({net.site_name(s),
                 Table::integer(static_cast<std::int64_t>(r->path.size()) - 1),
                 format_rate(r->bottleneck), r->duration.str(),
                 Table::num(r->effective_mbps(), 2)});
    }
    h.print(t);
  }
  std::printf("expected shape: CASA HIPPI partners (JPL, Los Alamos, SDSC) "
              "are ~500x faster than T1 tails; the 56 kbps site is the "
              "long pole by another ~25x\n");

  bm.metric("transfers", transfers);
  bm.metric("links", static_cast<std::int64_t>(net.links().size()));
  return 0;
}

int main(int argc, char** argv) {
  bench::Harness h("fig3_consortium",
                   "Delta Consortium connectivity and transfer times");
  h.args.add_option("mb", "dataset sizes to transfer (MB, comma-separated)",
                    "1,100");
  return h.run(argc, argv, exhibit);
}
