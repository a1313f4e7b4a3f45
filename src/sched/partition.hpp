// Rectangular partition allocation on a 2-D mesh.
//
// The Delta was space-shared: jobs received contiguous rectangular
// sub-meshes (XY wormhole routing keeps a rectangle's traffic inside
// it, so rectangular partitions give per-job performance isolation).
// This allocator implements the first-fit rectangle policy of such
// systems plus the usual operational metrics (utilization, external
// fragmentation).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mesh/topology.hpp"
#include "util/assert.hpp"

namespace hpccsim::sched {

struct Rect {
  std::int32_t x = 0;  ///< left column
  std::int32_t y = 0;  ///< top row
  std::int32_t w = 0;
  std::int32_t h = 0;
  std::int32_t nodes() const { return w * h; }
  friend bool operator==(const Rect&, const Rect&) = default;
};

using PartitionId = std::int64_t;

class PartitionAllocator {
 public:
  explicit PartitionAllocator(mesh::Mesh2D mesh);

  /// First-fit allocation of a w x h rectangle (both orientations are
  /// tried; wider-than-tall first). Returns nullopt if nothing fits.
  std::optional<PartitionId> allocate(std::int32_t w, std::int32_t h);

  /// Allocate `nodes` as a near-square rectangle, relaxing toward
  /// skinnier shapes (down to 1 x nodes) until something fits.
  std::optional<PartitionId> allocate_nodes(std::int32_t nodes);

  void release(PartitionId id);

  const Rect& rect_of(PartitionId id) const;
  std::int32_t nodes_busy() const { return busy_; }
  std::int32_t nodes_total() const { return mesh_.node_count(); }
  double utilization() const {
    return static_cast<double>(busy_) / nodes_total();
  }
  std::size_t active_partitions() const;

  /// Largest free rectangle currently allocatable (by node count).
  std::int32_t largest_free_rectangle() const { return largest_free_; }

  /// External fragmentation: free nodes not part of the largest free
  /// rectangle, as a fraction of all free nodes (0 = unfragmented).
  double fragmentation() const;

  const mesh::Mesh2D& mesh() const { return mesh_; }

 private:
  bool fits_at(std::int32_t x, std::int32_t y, std::int32_t w,
               std::int32_t h) const;
  std::optional<Rect> find_first_fit(std::int32_t w, std::int32_t h) const;
  void mark(const Rect& r, bool value);
  void recount();

  mesh::Mesh2D mesh_;
  std::vector<bool> occupied_;  // row-major: y * width + x, the node id
  // Summed-area table of busy nodes, (W+1) x (H+1) row-major: entry
  // (x, y) counts the busy nodes in columns [0, x) of rows [0, y), so a
  // rectangle's busy count is four loads. Rebuilt by mark().
  std::vector<std::int32_t> busy_below_;
  std::vector<std::optional<Rect>> partitions_;
  std::int32_t busy_ = 0;
  std::int32_t largest_free_ = 0;  // recomputed by mark()
};

/// Shapes to try for an n-node near-square request, widest-first.
std::vector<std::pair<std::int32_t, std::int32_t>> candidate_shapes(
    std::int32_t nodes);

}  // namespace hpccsim::sched
