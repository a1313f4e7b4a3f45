// Ablation A2: collective-algorithm choice on the 528-node Delta.
//
// The LU reproduction leans on broadcasts (panels along rows, U blocks
// down columns) and allreduces (pivot search). This harness measures the
// alternatives the library implements — binomial tree, ring pipeline,
// flat fan-out, recursive doubling — across payload sizes, to justify
// the defaults.
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "nx/collectives.hpp"
#include "nx/machine_runtime.hpp"
#include "proc/machine.hpp"
#include "util/parallel.hpp"

namespace {

using namespace hpccsim;
using nx::CollectiveAlgo;

double time_bcast(const proc::MachineConfig& mc, Bytes bytes,
                  CollectiveAlgo algo) {
  nx::NxMachine machine(mc);
  return machine
      .run([bytes, algo](nx::NxContext& ctx) -> sim::Task<> {
        nx::Group world = nx::Group::world(ctx);
        co_await nx::bcast(ctx, world, 0, bytes, {}, algo);
      })
      .as_us();
}

double time_allreduce(const proc::MachineConfig& mc, Bytes bytes,
                      CollectiveAlgo algo) {
  nx::NxMachine machine(mc);
  return machine
      .run([bytes, algo](nx::NxContext& ctx) -> sim::Task<> {
        nx::Group world = nx::Group::world(ctx);
        co_await nx::allreduce(ctx, world, nx::ReduceOp::Sum, bytes, {},
                               algo);
      })
      .as_us();
}

int exhibit(const ArgParser& args, bench::Harness& h) {
  proc::MachineConfig mc = proc::touchstone_delta();
  if (args.integer("nodes") > 0)
    mc = mc.with_nodes(static_cast<std::int32_t>(args.integer("nodes")));
  std::printf("== A2: collectives on %s (%d nodes) ==\n", mc.name.c_str(),
              mc.node_count());

  const std::vector<Bytes> sizes{8, 1024, 65536, 1048576};

  // Flatten every (size, collective, algorithm) measurement across both
  // tables into one parallel_for — each is an independent simulated
  // machine — then assemble the tables in order after the join.
  struct Cell {
    bool allreduce;
    CollectiveAlgo algo;
  };
  const std::vector<Cell> kinds{{false, CollectiveAlgo::Binomial},
                                {false, CollectiveAlgo::Ring},
                                {false, CollectiveAlgo::Flat},
                                {true, CollectiveAlgo::Binomial},
                                {true, CollectiveAlgo::Ring}};
  std::vector<double> us(sizes.size() * kinds.size());
  parallel_for(us.size(), args.jobs(), [&](std::size_t i) {
    const Bytes b = sizes[i / kinds.size()];
    const Cell& k = kinds[i % kinds.size()];
    us[i] = k.allreduce ? time_allreduce(mc, b, k.algo)
                        : time_bcast(mc, b, k.algo);
  });
  const auto at = [&](std::size_t size_idx, std::size_t kind_idx) {
    return Table::num(us[size_idx * kinds.size() + kind_idx], 0);
  };

  Table tb({"bytes", "bcast binomial (us)", "bcast ring (us)",
            "bcast flat (us)"});
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    tb.add_row({Table::integer(static_cast<std::int64_t>(sizes[s])),
                at(s, 0), at(s, 1), at(s, 2)});
  }
  h.print(tb);

  Table ta({"bytes", "allreduce binomial (us)", "allreduce ring (us)"});
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    ta.add_row({Table::integer(static_cast<std::int64_t>(sizes[s])),
                at(s, 3), at(s, 4)});
  }
  h.print(ta);
  std::printf("expected: binomial wins across the board at P=528 (log2(P) "
              "steps); ring pays P-1 serial software overheads so it is "
              "worst for small payloads; flat fan-out is root-bound "
              "(527 serial sends) and catches ring only at large "
              "payloads\n");

  obs::BenchMetrics& bm = h.metrics;
  bm.config("nodes", static_cast<std::int64_t>(mc.node_count()));
  for (const double cell_us : us) bm.add_sim_time(sim::Time::us(cell_us));
  const std::size_t last = sizes.size() - 1;
  bm.metric("bcast_binomial_1mb_us", us[last * kinds.size() + 0]);
  bm.metric("allreduce_binomial_1mb_us", us[last * kinds.size() + 3]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablate_collectives",
                   "collective algorithms on the 528-node Delta");
  h.args.add_option("nodes", "node count (0 = full machine)", "0");
  h.args.add_jobs_option();
  return h.run(argc, argv, exhibit);
}
