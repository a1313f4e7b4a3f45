#include "grid/catalog.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/assert.hpp"

namespace hpccsim::grid {

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::WidestPath: return "widest";
    case Placement::LeastLoaded: return "least-loaded";
  }
  return "?";
}

Placement placement_from(std::string_view name) {
  if (name == "widest") return Placement::WidestPath;
  if (name == "least-loaded") return Placement::LeastLoaded;
  throw std::invalid_argument("unknown placement policy: " +
                              std::string(name));
}

std::int32_t SiteRows::count(std::int32_t row) const {
  std::int32_t n = 0;
  for_each(row, [&](SiteId) { ++n; });
  return n;
}

bool SiteRows::none() const {
  return std::all_of(bits_.begin(), bits_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

DatasetId ReplicaCatalog::add_dataset(Bytes size, SiteId initial_replica) {
  HPCCSIM_EXPECTS(size > 0);
  HPCCSIM_EXPECTS(initial_replica >= 0 &&
                  initial_replica < replicas_.sites());
  const auto d = static_cast<DatasetId>(sizes_.size());
  sizes_.push_back(size);
  replicas_.add_rows(1);
  replicas_.set(d, initial_replica);
  return d;
}

void ReplicaCatalog::add_replica(DatasetId d, SiteId s) {
  HPCCSIM_EXPECTS(d >= 0 && d < dataset_count());
  HPCCSIM_EXPECTS(s >= 0 && s < replicas_.sites());
  replicas_.set(d, s);
}

SiteId ReplicaCatalog::select_source(
    DatasetId d, SiteId dst, Placement policy, wan::RouteTable& routes,
    const std::vector<double>& egress_backlog_s) const {
  HPCCSIM_EXPECTS(d >= 0 && d < dataset_count());
  // Replicas come in ascending site id, so a strictly better score is
  // the only way to displace the current pick: ties keep the lowest id.
  SiteId best = -1;
  double best_score = 0.0;  // meaning depends on the policy
  replicas_.for_each(d, [&](SiteId s) {
    if (s == dst) return;
    const auto* route = routes.route(s, dst);
    if (route == nullptr) return;
    double score = 0.0;
    switch (policy) {
      case Placement::WidestPath:
        score = route->bottleneck_bps;  // larger is better
        break;
      case Placement::LeastLoaded:
        // Less assigned sending time is better; negate so larger wins.
        score = -egress_backlog_s.at(static_cast<std::size_t>(s));
        break;
    }
    if (best == -1 || score > best_score) {
      best = s;
      best_score = score;
    }
  });
  return best;
}

}  // namespace hpccsim::grid
