// Flow-level simulation of concurrent WAN transfers.
//
// Wan::transfer() times one transfer on an idle network; this module
// answers the operational question behind the paper's NREN component:
// what happens when the whole consortium pulls data at once? Flows share
// links by max-min fairness (the steady state of well-behaved transport
// protocols), recomputed at every flow arrival/completion — a classic
// fluid-model network simulation.
//
// run() executes on the incremental FlowEngine (wan/flow_engine.hpp);
// run_reference() keeps the original full-recompute loop as the
// slow-but-obviously-correct oracle that the randomized property suite
// in tests/wan_test.cpp cross-checks the engine against.
#pragma once

#include <cstdint>
#include <vector>

#include "core/time.hpp"
#include "util/units.hpp"
#include "wan/wan.hpp"

namespace hpccsim::wan {

struct Flow {
  SiteId src = 0;
  SiteId dst = 0;
  Bytes bytes = 0;
  sim::Time start;

  // Results, filled by the simulator.
  sim::Time finish;
  bool done = false;
  /// finish - start, divided by the transfer's idle-network duration:
  /// 1.0 = no interference, 2.0 = took twice as long.
  double slowdown = 0.0;
};

class FlowSimulator {
 public:
  explicit FlowSimulator(const Wan& wan);

  /// Register a flow (before run()); routed on its widest path through
  /// the simulator's RouteTable. Returns the flow index. Throws
  /// std::invalid_argument if src and dst are disconnected, and
  /// ContractError if called after run() — the simulator is single-shot.
  std::size_t add_flow(SiteId src, SiteId dst, Bytes bytes,
                       sim::Time start = sim::Time::zero());

  /// Run the fluid simulation to completion of all flows, on the
  /// incremental FlowEngine. Single-shot: a second run() (or a later
  /// add_flow()) throws ContractError.
  void run();

  /// The original O(flows × links)-per-event reference loop, kept as
  /// the oracle for the engine. Same single-shot contract as run().
  void run_reference();

  const std::vector<Flow>& flows() const { return flows_; }

  /// Max-min fair rates (bytes/s per flow) for a hypothetical set of
  /// simultaneously active flows — exposed for testing the allocator.
  ///
  /// Tie-break contract: when several links offer the same smallest
  /// fair share, the lowest-indexed link (registration order in
  /// Wan::add_link) is frozen first. The max-min *allocation* is
  /// unique regardless, but the pinned order fixes the floating-point
  /// evaluation sequence, so rates are bit-stable across runs and
  /// match FlowEngine's restricted water-fill exactly. If
  /// `bottleneck_order` is non-null it receives the link indices in
  /// the order they were frozen.
  std::vector<double> fair_rates(
      const std::vector<std::size_t>& active,
      std::vector<std::size_t>* bottleneck_order = nullptr) const;

 private:
  void finish_flow(std::size_t f, sim::Time finish);

  RouteTable routes_;  // also handed to the FlowEngine by run()
  std::vector<Flow> flows_;
  std::vector<const RouteTable::Route*> route_;  // per flow
  bool ran_ = false;
};

}  // namespace hpccsim::wan
