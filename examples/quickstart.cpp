// Quickstart: the smallest complete hpccsim program.
//
// Builds a 16-node slice of the Touchstone Delta, runs an SPMD program
// on it (point-to-point ring + a global reduction), and prints what the
// machine did. Start here, then read bench/fig1_linpack.cpp for the
// paper's headline experiment.
//
//   $ ./quickstart
#include <cstdio>

#include "nx/collectives.hpp"
#include "nx/machine_runtime.hpp"
#include "proc/machine.hpp"

using namespace hpccsim;

namespace {

// Every node passes a token around a ring, then everyone computes a
// global sum. This is the "hello world" of message passing.
sim::Task<> ring_program(nx::NxContext& ctx) {
  const int right = (ctx.rank() + 1) % ctx.nodes();
  const int left = (ctx.rank() + ctx.nodes() - 1) % ctx.nodes();
  constexpr int kTag = 1;

  if (ctx.rank() == 0) {
    // Start the token, then wait for it to come back around.
    co_await ctx.send(right, kTag, /*bytes=*/8, nx::payload_of(1.0));
    nx::Message token = co_await ctx.recv(left, kTag);
    std::printf("rank 0: token returned with value %.0f at t=%s\n",
                token.values().at(0), ctx.now().str().c_str());
  } else {
    nx::Message token = co_await ctx.recv(left, kTag);
    const double hops = token.values().at(0) + 1.0;
    co_await ctx.send(right, kTag, 8, nx::payload_of(hops));
  }

  // Some local "work" (charged against the i860 kernel model) ...
  co_await ctx.compute(proc::Kernel::Gemm, 64, 64, 64);

  // ... then a global sum of ranks.
  nx::Group world = nx::Group::world(ctx);
  nx::Message sum = co_await nx::allreduce(
      ctx, world, nx::ReduceOp::Sum, 8, nx::payload_of(double(ctx.rank())));
  if (ctx.rank() == 0)
    std::printf("rank 0: allreduce(ranks) = %.0f (expect %d)\n",
                sum.values().at(0), ctx.nodes() * (ctx.nodes() - 1) / 2);
}

}  // namespace

int main() {
  // A 16-node slice of the Delta: same i860 nodes, same mesh links.
  const proc::MachineConfig mc = proc::touchstone_delta().with_nodes(16);
  nx::NxMachine machine(mc);

  std::printf("machine: %s (%d nodes, peak %s)\n", mc.name.c_str(),
              machine.nodes(), format_flops(mc.machine_peak()).c_str());

  const sim::Time elapsed = machine.run(ring_program);

  const nx::NodeStats s = machine.total_stats();
  std::printf("simulated time : %s\n", elapsed.str().c_str());
  std::printf("messages       : %llu (%s)\n",
              static_cast<unsigned long long>(s.sends),
              format_bytes(s.bytes_sent).c_str());
  std::printf("flops charged  : %llu\n",
              static_cast<unsigned long long>(s.flops_charged));
  std::printf("host events    : %llu\n",
              static_cast<unsigned long long>(
                  machine.engine().events_processed()));
  return 0;
}
