// 2-D mesh topology: the Touchstone Delta's interconnect shape.
//
// Nodes are numbered row-major: id = y * width + x. Each node has up to
// four neighbours (±x, ±y). Links are unidirectional and identified by
// (from-node, direction), which gives the analytical contention model a
// dense, stable indexing scheme.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace hpccsim::mesh {

using NodeId = std::int32_t;

struct Coord {
  std::int32_t x = 0;
  std::int32_t y = 0;
  friend bool operator==(Coord, Coord) = default;
};

enum class Dir : std::uint8_t { East = 0, West = 1, North = 2, South = 3 };

/// Unidirectional link id: 4 * node + direction.
using LinkId = std::int32_t;

class Mesh2D {
 public:
  Mesh2D(std::int32_t width, std::int32_t height);

  std::int32_t width() const { return width_; }
  std::int32_t height() const { return height_; }
  std::int32_t node_count() const { return width_ * height_; }
  std::int32_t link_count() const { return 4 * node_count(); }

  Coord coord_of(NodeId id) const;
  NodeId id_of(Coord c) const;
  bool contains(Coord c) const;

  /// Neighbour in a direction, or -1 if off the mesh edge.
  NodeId neighbour(NodeId id, Dir d) const;

  /// Manhattan distance (the hop count of the XY route).
  std::int32_t distance(NodeId a, NodeId b) const;

  LinkId link(NodeId from, Dir d) const {
    HPCCSIM_EXPECTS(neighbour(from, d) >= 0);
    return 4 * from + static_cast<LinkId>(d);
  }

  /// Dimension-order (XY) route: the link sequence from src to dst.
  /// Deterministic and deadlock-free on a mesh. Empty if src == dst.
  /// The analytical model walks the same route by arithmetic; this is
  /// its test oracle.
  std::vector<LinkId> xy_route(NodeId src, NodeId dst) const;

  /// The node sequence visited by the XY route, including endpoints.
  std::vector<NodeId> xy_path_nodes(NodeId src, NodeId dst) const;

  std::string describe() const;

 private:
  std::int32_t width_;
  std::int32_t height_;
};

}  // namespace hpccsim::mesh
