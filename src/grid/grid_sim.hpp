// GridSimulator: drives a federation through a workload on the
// incremental fluid WAN engine.
//
// Each request for (dataset, leaf) is served one of three ways:
//  - cache hit: the leaf already holds a replica — no WAN transfer;
//  - coalesced: the same (dataset, leaf) transfer is already in
//    flight — the request joins it (counted when it joins) and
//    completes with it;
//  - a new flow from the replica the placement policy selects.
// Completed transfers cache the dataset at the leaf when its replica
// storage has room (no eviction; full caches reject new fills), which
// feeds the catalog and shifts later source selection toward the edge.
//
// All accounting is exported to an obs::Registry under grid.* (and
// per-site grid.site.*), deterministic for a given workload seed.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/catalog.hpp"
#include "grid/federation.hpp"
#include "grid/workload.hpp"
#include "wan/flow_engine.hpp"
#include "wan/wan.hpp"

namespace hpccsim::obs {
class Registry;
}

namespace hpccsim::grid {

class GridSimulator {
 public:
  GridSimulator(const Federation& fed, Placement policy);

  /// Drain the workload to completion. Single-shot.
  void run(WorkloadGenerator& workload);

  sim::Time now() const { return engine_.now(); }
  const ReplicaCatalog& catalog() const { return catalog_; }
  const wan::FlowEngine::Stats& engine_stats() const {
    return engine_.stats();
  }

  struct Stats {
    std::int64_t requests = 0;
    std::int64_t cache_hits = 0;
    std::int64_t coalesced = 0;
    std::int64_t flows_completed = 0;
    std::int64_t cache_fills = 0;
    std::int64_t cache_rejected = 0;
    std::int64_t unroutable = 0;
    Bytes bytes_moved = 0;
    double slowdown_sum = 0.0;  ///< over completed flows
    double mean_slowdown() const {
      return flows_completed ? slowdown_sum /
                                   static_cast<double>(flows_completed)
                             : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }

  /// grid.* counters, per-site ingress/egress, and the engine's
  /// grid.flow.* counters.
  void export_counters(obs::Registry& reg) const;

 private:
  void on_complete(const wan::FlowEngine::Completion& c);

  const Federation* fed_;
  Placement policy_;
  ReplicaCatalog catalog_;
  wan::RouteTable routes_;
  wan::FlowEngine engine_;

  // (dataset, dst) transfers in flight: one row per dataset.
  SiteRows inflight_;

  std::vector<Bytes> ingress_, egress_;         // by SiteId, completed
  std::vector<double> egress_backlog_s_;        // by SiteId, at selection
  std::vector<Bytes> cache_used_;               // by SiteId
  Stats stats_;
  bool ran_ = false;
};

}  // namespace hpccsim::grid
