#include "mesh/analytical.hpp"

#include <algorithm>

namespace hpccsim::mesh {

AnalyticalMeshNet::AnalyticalMeshNet(Mesh2D mesh, AnalyticalParams params)
    : mesh_(mesh),
      params_(params),
      link_free_at_(static_cast<std::size_t>(mesh.link_count()),
                    sim::Time::zero()) {
  HPCCSIM_EXPECTS(params.channel_bw.bytes_per_sec() > 0);
}

sim::Time AnalyticalMeshNet::transfer(NodeId src, NodeId dst, Bytes bytes,
                                      sim::Time depart) {
  HPCCSIM_EXPECTS(src >= 0 && src < mesh_.node_count());
  HPCCSIM_EXPECTS(dst >= 0 && dst < mesh_.node_count());
  ++messages_;

  const sim::Time ser = sim::Time::sec(static_cast<double>(bytes) /
                                       params_.channel_bw.bytes_per_sec());
  if (src == dst) {
    // Local delivery: through the NIC only, no mesh links.
    return depart + params_.nic_latency + ser;
  }

  // The route goes into a member scratch buffer: this runs once per
  // message, and the modeled hot path must not heap-allocate
  // (docs/PERF.md).
  std::vector<LinkId>& route = route_scratch_;
  mesh_.xy_route_into(src, dst, route);
  sim::Time start = depart;
  for (const LinkId l : route)
    start = std::max(start, link_free_at_[static_cast<std::size_t>(l)]);

  const sim::Time queued = start - depart;
  contention_ps_sum_ += queued.picoseconds();
  ++contention_count_;
  contention_max_ = std::max(contention_max_, queued);

  const sim::Time busy_until = start + ser;
  for (const LinkId l : route)
    link_free_at_[static_cast<std::size_t>(l)] = busy_until;

  const auto hops = static_cast<std::uint64_t>(route.size());
  return start + params_.nic_latency * 2 + params_.per_hop_latency * hops +
         ser;
}

void AnalyticalMeshNet::reset() {
  std::fill(link_free_at_.begin(), link_free_at_.end(), sim::Time::zero());
  messages_ = 0;
  contention_ps_sum_ = 0;
  contention_count_ = 0;
  contention_max_ = sim::Time::zero();
}

}  // namespace hpccsim::mesh
