// Replica catalog: which sites hold a copy of which dataset, and which
// copy a transfer should pull from.
//
// Datasets start on one archive; replicas accumulate at leaves as
// transfers complete (cache-on-read, capacity permitting). Source
// selection offers two policies:
//
//  - WidestPath: the replica with the highest idle-network bottleneck
//    bandwidth to the destination — the static "best pipe" choice.
//  - LeastLoaded: the replica whose site has been assigned the least
//    cumulative sending time (bytes shipped normalized by the site's
//    access bandwidth) — a load-spreading choice that trades path
//    quality for source fan-out.
//
// Both tie-break on the lowest site id, so selection is deterministic
// for a given catalog state.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "grid/federation.hpp"
#include "util/units.hpp"
#include "wan/wan.hpp"

namespace hpccsim::grid {

using DatasetId = std::int32_t;

enum class Placement : std::uint8_t { WidestPath, LeastLoaded };

const char* placement_name(Placement p);
/// Parse "widest" or "least-loaded"; throws std::invalid_argument.
Placement placement_from(std::string_view name);

class ReplicaCatalog {
 public:
  DatasetId add_dataset(Bytes size, SiteId initial_replica);

  std::int32_t dataset_count() const {
    return static_cast<std::int32_t>(datasets_.size());
  }
  Bytes size(DatasetId d) const { return at(d).size; }
  const std::vector<SiteId>& replicas(DatasetId d) const {
    return at(d).replicas;
  }
  bool has_replica(DatasetId d, SiteId s) const;
  /// Idempotent: adding an existing replica is a no-op.
  void add_replica(DatasetId d, SiteId s);

  /// Pick the source replica for a transfer of `d` to `dst` under
  /// `policy`. `egress_backlog_s` is each site's cumulative assigned
  /// sending time (indexed by SiteId), consulted by LeastLoaded.
  /// Returns -1 if no replica can reach `dst`.
  SiteId select_source(DatasetId d, SiteId dst, Placement policy,
                       wan::RouteTable& routes,
                       const std::vector<double>& egress_backlog_s) const;

 private:
  struct Dataset {
    Bytes size = 0;
    std::vector<SiteId> replicas;
  };
  const Dataset& at(DatasetId d) const {
    return datasets_.at(static_cast<std::size_t>(d));
  }

  std::vector<Dataset> datasets_;
};

}  // namespace hpccsim::grid
