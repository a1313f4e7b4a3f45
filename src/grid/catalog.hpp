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
//
// Replica membership is one bit row per dataset (SiteRows), so the
// per-request has_replica test is one load, and selection walks the
// set bits in ascending site id.
#pragma once

#include <bit>
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

/// One bit per (row, site): each row is ceil(sites / 64) words, and
/// every row lives in one flat vector.
class SiteRows {
 public:
  explicit SiteRows(std::int32_t sites)
      : sites_(sites), words_((static_cast<std::size_t>(sites) + 63) / 64) {}

  std::int32_t sites() const { return sites_; }
  /// Append `n` empty rows.
  void add_rows(std::size_t n) { bits_.resize(bits_.size() + n * words_, 0); }

  bool test(std::int32_t row, SiteId s) const {
    return (word(row, s) >> (s % 64)) & 1u;
  }
  void set(std::int32_t row, SiteId s) {
    word(row, s) |= std::uint64_t{1} << (s % 64);
  }
  void reset(std::int32_t row, SiteId s) {
    word(row, s) &= ~(std::uint64_t{1} << (s % 64));
  }
  std::int32_t count(std::int32_t row) const;
  /// True when no row has a bit set.
  bool none() const;

  /// Call f(site) for each set bit of `row`, in ascending site id.
  template <class F>
  void for_each(std::int32_t row, F&& f) const {
    const std::uint64_t* w = &bits_[index(row, 0)];
    for (std::size_t i = 0; i < words_; ++i)
      for (std::uint64_t b = w[i]; b != 0; b &= b - 1)
        f(static_cast<SiteId>(i * 64 + std::countr_zero(b)));
  }

 private:
  std::size_t index(std::int32_t row, SiteId s) const {
    return static_cast<std::size_t>(row) * words_ +
           static_cast<std::size_t>(s) / 64;
  }
  std::uint64_t word(std::int32_t row, SiteId s) const {
    return bits_[index(row, s)];
  }
  std::uint64_t& word(std::int32_t row, SiteId s) {
    return bits_[index(row, s)];
  }

  std::int32_t sites_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

class ReplicaCatalog {
 public:
  /// A catalog over sites [0, site_count).
  explicit ReplicaCatalog(std::int32_t site_count) : replicas_(site_count) {}

  DatasetId add_dataset(Bytes size, SiteId initial_replica);

  std::int32_t dataset_count() const {
    return static_cast<std::int32_t>(sizes_.size());
  }
  Bytes size(DatasetId d) const {
    return sizes_.at(static_cast<std::size_t>(d));
  }
  std::int32_t replica_count(DatasetId d) const {
    return replicas_.count(d);
  }
  bool has_replica(DatasetId d, SiteId s) const {
    return replicas_.test(d, s);
  }
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
  std::vector<Bytes> sizes_;  // per dataset
  SiteRows replicas_;         // one row per dataset
};

}  // namespace hpccsim::grid
