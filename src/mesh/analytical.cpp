#include "mesh/analytical.hpp"

#include <algorithm>
#include <cstdlib>

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

  // The XY route (Mesh2D::xy_route), walked by arithmetic: link
  // 4 * node + dir along the source row to the destination column, then
  // along that column. This runs once per message, so it builds no route
  // and calls nothing per hop.
  const std::int32_t w = mesh_.width();
  const std::int32_t turn = src - src % w + dst % w;  // (dst.x, src.y)
  const std::int32_t xstep = turn > src ? 1 : -1;
  const std::int32_t ystep = dst > turn ? w : -w;
  const int xdir = static_cast<int>(xstep > 0 ? Dir::East : Dir::West);
  const int ydir = static_cast<int>(ystep > 0 ? Dir::South : Dir::North);
  auto each_link = [&](auto&& f) {
    for (std::int32_t at = src; at != turn; at += xstep)
      f(link_free_at_[static_cast<std::size_t>(4 * at + xdir)]);
    for (std::int32_t at = turn; at != dst; at += ystep)
      f(link_free_at_[static_cast<std::size_t>(4 * at + ydir)]);
  };
  sim::Time start = depart;
  each_link([&start](sim::Time t) { start = std::max(start, t); });

  const sim::Time queued = start - depart;
  contention_ps_sum_ += queued.picoseconds();
  ++contention_count_;
  contention_max_ = std::max(contention_max_, queued);

  const sim::Time busy_until = start + ser;
  each_link([busy_until](sim::Time& t) { t = busy_until; });

  const auto hops = static_cast<std::uint64_t>(std::abs(turn - src) +
                                               std::abs(dst - turn) / w);
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
