#include "wan/wan.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <tuple>

#include "util/assert.hpp"

namespace hpccsim::wan {

const char* link_type_name(LinkType t) {
  switch (t) {
    case LinkType::Regional56k: return "56kbps";
    case LinkType::T1: return "T1";
    case LinkType::T3: return "T3";
    case LinkType::Ethernet10: return "Ethernet";
    case LinkType::FDDI: return "FDDI";
    case LinkType::HippiSonet: return "HIPPI/SONET";
  }
  return "?";
}

BytesPerSecond link_bandwidth(LinkType t) {
  switch (t) {
    case LinkType::Regional56k: return kbps(56);
    case LinkType::T1: return mbps(1.544);
    case LinkType::T3: return mbps(44.736);
    case LinkType::Ethernet10: return mbps(10);
    case LinkType::FDDI: return mbps(100);
    case LinkType::HippiSonet: return mbps(800);
  }
  return mbps(0);
}

SiteId Wan::add_site(std::string name) {
  sites_.push_back(Site{std::move(name)});
  adj_.emplace_back();
  return static_cast<SiteId>(sites_.size() - 1);
}

void Wan::add_link(SiteId a, SiteId b, LinkType type, sim::Time propagation) {
  HPCCSIM_EXPECTS(a >= 0 && a < site_count());
  HPCCSIM_EXPECTS(b >= 0 && b < site_count());
  HPCCSIM_EXPECTS(a != b);
  links_.push_back(Link{a, b, type, propagation});
  const std::size_t idx = links_.size() - 1;
  adj_[static_cast<std::size_t>(a)].push_back(Edge{b, idx});
  adj_[static_cast<std::size_t>(b)].push_back(Edge{a, idx});
}

SiteId Wan::site_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < sites_.size(); ++i)
    if (sites_[i].name == name) return static_cast<SiteId>(i);
  throw std::invalid_argument("unknown WAN site: " + name);
}

const Link& Wan::link_on(SiteId a, SiteId b) const {
  return links_[link_index(a, b)];
}

std::size_t Wan::link_index(SiteId a, SiteId b) const {
  for (const Edge& e : adj_.at(static_cast<std::size_t>(a)))
    if (e.to == b) return e.link;
  throw std::logic_error("no link between sites");
}

std::vector<std::size_t> Wan::path_links(
    const std::vector<SiteId>& path) const {
  std::vector<std::size_t> out;
  out.reserve(path.empty() ? 0 : path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    out.push_back(link_index(path[i], path[i + 1]));
  return out;
}

std::optional<std::vector<SiteId>> Wan::widest_path(SiteId src,
                                                    SiteId dst) const {
  HPCCSIM_EXPECTS(src >= 0 && src < site_count());
  HPCCSIM_EXPECTS(dst >= 0 && dst < site_count());
  // Modified Dijkstra: maximise min-bandwidth along the path; break ties
  // by hop count for stable, sensible routes.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> width(sites_.size(), -1.0);
  std::vector<std::int32_t> hops(sites_.size(),
                                 std::numeric_limits<std::int32_t>::max());
  std::vector<SiteId> prev(sites_.size(), -1);
  using Entry = std::tuple<double, std::int32_t, SiteId>;  // -width, hops, id
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  width[static_cast<std::size_t>(src)] = kInf;
  hops[static_cast<std::size_t>(src)] = 0;
  pq.emplace(-kInf, 0, src);
  while (!pq.empty()) {
    auto [negw, h, u] = pq.top();
    pq.pop();
    if (-negw < width[static_cast<std::size_t>(u)] ||
        h > hops[static_cast<std::size_t>(u)])
      continue;
    for (const Edge& e : adj_[static_cast<std::size_t>(u)]) {
      const double bw = link_bandwidth(links_[e.link].type).bytes_per_sec();
      const double w = std::min(width[static_cast<std::size_t>(u)], bw);
      const std::int32_t nh = h + 1;
      auto& cw = width[static_cast<std::size_t>(e.to)];
      auto& ch = hops[static_cast<std::size_t>(e.to)];
      if (w > cw || (w == cw && nh < ch)) {
        cw = w;
        ch = nh;
        prev[static_cast<std::size_t>(e.to)] = u;
        pq.emplace(-w, nh, e.to);
      }
    }
  }
  if (width[static_cast<std::size_t>(dst)] < 0) return std::nullopt;
  std::vector<SiteId> path;
  for (SiteId at = dst; at != -1; at = prev[static_cast<std::size_t>(at)])
    path.push_back(at);
  std::reverse(path.begin(), path.end());
  HPCCSIM_ENSURES(path.front() == src && path.back() == dst);
  return path;
}

std::optional<TransferResult> Wan::transfer(SiteId src, SiteId dst,
                                            Bytes bytes) const {
  HPCCSIM_EXPECTS(bytes > 0);
  constexpr Bytes packet_bytes = 1500;  // an Ethernet frame
  if (src == dst)
    return TransferResult{{src}, sim::Time::zero(), mbps(0), bytes};
  auto path_opt = widest_path(src, dst);
  if (!path_opt) return std::nullopt;
  const auto& path = *path_opt;

  // Store-and-forward pipelining over H hops with per-link rates r_i and
  // propagation p_i, P packets of size s:
  //   t = sum_i (s / r_i + p_i)            (first packet reaches dst)
  //     + (P - 1) * s / min_i(r_i)         (remaining stream at bottleneck)
  const std::uint64_t packets = (bytes + packet_bytes - 1) / packet_bytes;
  double first_packet_s = 0.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  sim::Time prop_total = sim::Time::zero();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Link& l = link_on(path[i], path[i + 1]);
    const double bw = link_bandwidth(l.type).bytes_per_sec();
    first_packet_s += static_cast<double>(packet_bytes) / bw;
    prop_total += l.propagation;
    bottleneck = std::min(bottleneck, bw);
  }
  const double rest_s = static_cast<double>(packets - 1) *
                        static_cast<double>(packet_bytes) / bottleneck;
  TransferResult r;
  r.path = path;
  r.bytes = bytes;
  r.bottleneck = BytesPerSecond{bottleneck};
  r.duration = sim::Time::sec(first_packet_s + rest_s) + prop_total;
  return r;
}

std::vector<SiteId> Wan::reachable_from(SiteId src) const {
  HPCCSIM_EXPECTS(src >= 0 && src < site_count());
  std::vector<bool> seen(sites_.size(), false);
  std::vector<SiteId> out, stack{src};
  seen[static_cast<std::size_t>(src)] = true;
  while (!stack.empty()) {
    const SiteId u = stack.back();
    stack.pop_back();
    out.push_back(u);
    for (const Edge& e : adj_[static_cast<std::size_t>(u)]) {
      if (!seen[static_cast<std::size_t>(e.to)]) {
        seen[static_cast<std::size_t>(e.to)] = true;
        stack.push_back(e.to);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

RouteTable::RouteTable(const Wan& wan) : wan_(&wan) {
  const auto n = static_cast<std::size_t>(wan.site_count());
  state_.assign(n * n, State::Unknown);
  routes_.resize(n * n);
}

const RouteTable::Route* RouteTable::route(SiteId src, SiteId dst) {
  HPCCSIM_EXPECTS(src >= 0 && src < wan_->site_count());
  HPCCSIM_EXPECTS(dst >= 0 && dst < wan_->site_count());
  HPCCSIM_EXPECTS(src != dst);
  const auto n = static_cast<std::size_t>(wan_->site_count());
  const std::size_t idx =
      static_cast<std::size_t>(src) * n + static_cast<std::size_t>(dst);
  if (state_[idx] == State::Unknown) {
    auto path = wan_->widest_path(src, dst);
    if (!path) {
      state_[idx] = State::Disconnected;
    } else {
      auto r = std::make_unique<Route>();
      r->sites = std::move(*path);
      double bottleneck = std::numeric_limits<double>::infinity();
      for (const std::size_t l : wan_->path_links(r->sites)) {
        r->links.push_back(static_cast<std::int32_t>(l));
        bottleneck = std::min(
            bottleneck,
            link_bandwidth(wan_->links()[l].type).bytes_per_sec());
      }
      r->bottleneck_bps = bottleneck;
      routes_[idx] = std::move(r);
      state_[idx] = State::Routed;
    }
  }
  return state_[idx] == State::Routed ? routes_[idx].get() : nullptr;
}

}  // namespace hpccsim::wan
