// Wide-area network model for the Delta Consortium / NREN experiments.
//
// Sites are vertices; links are typed by the 1992 service hierarchy the
// paper's consortium figure lists (56 kbps regional lines up to the CASA
// testbed's 800 Mbit/s HIPPI/SONET). Transfers are store-and-forward at
// packet granularity: each hop adds propagation delay, and each packet
// serializes onto each link, so multi-hop paths pipeline at the
// bottleneck link's rate — the behaviour that makes the NSFnet T3
// backbone matter. RouteTable caches the widest-path routes that the
// fluid flow model (wan/flows.hpp, wan/flow_engine.hpp) shares.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "util/units.hpp"

namespace hpccsim::wan {

using SiteId = std::int32_t;

/// 1992 link-service types, bandwidth per the paper's consortium figure.
enum class LinkType {
  Regional56k,   ///< 56 kbit/s leased line
  T1,            ///< 1.544 Mbit/s (paper rounds to 1.5)
  T3,            ///< 44.736 Mbit/s (paper rounds to 45)
  Ethernet10,    ///< 10 Mbit/s campus LAN
  FDDI,          ///< 100 Mbit/s campus ring
  HippiSonet,    ///< 800 Mbit/s CASA gigabit testbed channel
};

const char* link_type_name(LinkType t);
BytesPerSecond link_bandwidth(LinkType t);

struct Site {
  std::string name;
  /// Rough one-way speed-of-light delay to a common backbone point is
  /// modelled per-link; sites carry only identity.
};

struct Link {
  SiteId a = 0;
  SiteId b = 0;
  LinkType type = LinkType::T1;
  sim::Time propagation = sim::Time::ms(5);  ///< one-way
};

struct TransferResult {
  std::vector<SiteId> path;   ///< sites visited, src first
  sim::Time duration;         ///< first byte sent -> last byte received
  BytesPerSecond bottleneck;  ///< slowest link on the path
  double effective_mbps() const {
    return 0.0 == duration.as_sec()
               ? 0.0
               : bytes * 8.0 / duration.as_sec() / 1e6;
  }
  Bytes bytes = 0;
};

class Wan {
 public:
  SiteId add_site(std::string name);
  void add_link(SiteId a, SiteId b, LinkType type,
                sim::Time propagation = sim::Time::ms(5));

  std::int32_t site_count() const { return static_cast<std::int32_t>(sites_.size()); }
  const std::string& site_name(SiteId s) const { return sites_.at(s).name; }
  SiteId site_by_name(const std::string& name) const;

  /// Highest-bandwidth path (maximise bottleneck bandwidth, then fewest
  /// hops): the route a well-run 1992 NOC would provision.
  std::optional<std::vector<SiteId>> widest_path(SiteId src, SiteId dst) const;

  /// Store-and-forward transfer time along the widest path.
  /// 1,500-byte packets pipeline across hops.
  std::optional<TransferResult> transfer(SiteId src, SiteId dst,
                                         Bytes bytes) const;

  /// All sites reachable from `src`.
  std::vector<SiteId> reachable_from(SiteId src) const;

  const std::vector<Link>& links() const { return links_; }

  /// Index into links() of the (first) link joining two adjacent sites;
  /// throws if the sites are not directly connected.
  std::size_t link_index(SiteId a, SiteId b) const;

  /// The link indices along a site path (size path.size()-1).
  std::vector<std::size_t> path_links(const std::vector<SiteId>& path) const;

 private:
  struct Edge {
    SiteId to;
    std::size_t link;
  };
  const Link& link_on(SiteId a, SiteId b) const;

  std::vector<Site> sites_;
  std::vector<Link> links_;
  std::vector<std::vector<Edge>> adj_;
};

/// Memoized widest-path routing over a fixed topology. Routes are
/// computed lazily per (src, dst) pair and never invalidated (the Wan
/// is immutable once simulation starts), so a million transfers between
/// a few dozen sites pay for a few dozen Dijkstra runs, not a million.
class RouteTable {
 public:
  explicit RouteTable(const Wan& wan);

  struct Route {
    std::vector<SiteId> sites;        ///< src first, dst last
    std::vector<std::int32_t> links;  ///< indices into wan().links()
    double bottleneck_bps = 0.0;      ///< slowest link on the route
  };

  /// Cached widest path from src to dst; nullptr if disconnected.
  /// Pointers stay valid for the table's lifetime.
  const Route* route(SiteId src, SiteId dst);

  const Wan& wan() const { return *wan_; }

 private:
  enum class State : std::uint8_t { Unknown, Routed, Disconnected };
  const Wan* wan_;
  std::vector<State> state_;                     // site_count^2
  std::vector<std::unique_ptr<Route>> routes_;   // site_count^2
};

}  // namespace hpccsim::wan
