#include "mesh/topology.hpp"

#include <cstdlib>
#include <sstream>

namespace hpccsim::mesh {

Mesh2D::Mesh2D(std::int32_t width, std::int32_t height)
    : width_(width), height_(height) {
  HPCCSIM_EXPECTS(width > 0 && height > 0);
}

Coord Mesh2D::coord_of(NodeId id) const {
  HPCCSIM_EXPECTS(id >= 0 && id < node_count());
  return Coord{id % width_, id / width_};
}

NodeId Mesh2D::id_of(Coord c) const {
  HPCCSIM_EXPECTS(contains(c));
  return c.y * width_ + c.x;
}

bool Mesh2D::contains(Coord c) const {
  return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
}

NodeId Mesh2D::neighbour(NodeId id, Dir d) const {
  Coord c = coord_of(id);
  switch (d) {
    case Dir::East: ++c.x; break;
    case Dir::West: --c.x; break;
    case Dir::North: --c.y; break;
    case Dir::South: ++c.y; break;
  }
  return contains(c) ? id_of(c) : NodeId{-1};
}

std::int32_t Mesh2D::distance(NodeId a, NodeId b) const {
  const Coord ca = coord_of(a), cb = coord_of(b);
  return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
}

std::vector<LinkId> Mesh2D::xy_route(NodeId src, NodeId dst) const {
  const Coord to = coord_of(dst);
  std::vector<LinkId> out;
  out.reserve(static_cast<std::size_t>(distance(src, dst)));
  NodeId at = src;
  Coord c = coord_of(src);
  // X dimension first, then Y: the Delta's dimension-order rule.
  while (c.x != to.x) {
    const Dir d = c.x < to.x ? Dir::East : Dir::West;
    out.push_back(link(at, d));
    at = neighbour(at, d);
    c = coord_of(at);
  }
  while (c.y != to.y) {
    const Dir d = c.y < to.y ? Dir::South : Dir::North;
    out.push_back(link(at, d));
    at = neighbour(at, d);
    c = coord_of(at);
  }
  HPCCSIM_ENSURES(at == dst);
  return out;
}

std::vector<NodeId> Mesh2D::xy_path_nodes(NodeId src, NodeId dst) const {
  std::vector<NodeId> nodes{src};
  NodeId at = src;
  for (const LinkId l : xy_route(src, dst)) {
    at = neighbour(l / 4, static_cast<Dir>(l % 4));
    nodes.push_back(at);
  }
  HPCCSIM_ENSURES(nodes.back() == dst);
  return nodes;
}

std::string Mesh2D::describe() const {
  std::ostringstream os;
  os << width_ << "x" << height_ << " mesh (" << node_count() << " nodes)";
  return os.str();
}

}  // namespace hpccsim::mesh
