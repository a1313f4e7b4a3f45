#include "sched/partition.hpp"

#include <algorithm>
#include <cmath>

namespace hpccsim::sched {

PartitionAllocator::PartitionAllocator(mesh::Mesh2D mesh)
    : mesh_(mesh),
      occupied_(static_cast<std::size_t>(mesh.node_count()), false),
      busy_below_(static_cast<std::size_t>(mesh.width() + 1) *
                      static_cast<std::size_t>(mesh.height() + 1),
                  0) {
  recount();
}

bool PartitionAllocator::fits_at(std::int32_t x, std::int32_t y,
                                 std::int32_t w, std::int32_t h) const {
  if (x + w > mesh_.width() || y + h > mesh_.height()) return false;
  const auto stride = static_cast<std::size_t>(mesh_.width() + 1);
  const auto at = [&](std::int32_t i, std::int32_t j) {
    return busy_below_[static_cast<std::size_t>(j) * stride +
                       static_cast<std::size_t>(i)];
  };
  return at(x + w, y + h) - at(x, y + h) - at(x + w, y) + at(x, y) == 0;
}

std::optional<Rect> PartitionAllocator::find_first_fit(std::int32_t w,
                                                       std::int32_t h) const {
  // Row-major scan: deterministic, packs toward the origin.
  for (std::int32_t y = 0; y + h <= mesh_.height(); ++y)
    for (std::int32_t x = 0; x + w <= mesh_.width(); ++x)
      if (fits_at(x, y, w, h)) return Rect{x, y, w, h};
  return std::nullopt;
}

void PartitionAllocator::mark(const Rect& r, bool value) {
  const std::int32_t W = mesh_.width();
  for (std::int32_t j = r.y; j < r.y + r.h; ++j)
    for (std::int32_t i = r.x; i < r.x + r.w; ++i) {
      auto cell = occupied_[static_cast<std::size_t>(j * W + i)];  // proxy
      HPCCSIM_ASSERT(cell != value);
      cell = value;
    }
  busy_ += value ? r.nodes() : -r.nodes();
  recount();
}

// Rebuilds the summed-area table and the largest free rectangle from
// occupied_: O(W*H), once per allocate or release, so fits_at and
// fragmentation() cost O(1) between occupancy changes.
void PartitionAllocator::recount() {
  const auto W = static_cast<std::size_t>(mesh_.width());
  const auto H = static_cast<std::size_t>(mesh_.height());
  const std::size_t stride = W + 1;
  // Maximal free rectangle by the histogram method: height[x] is the
  // free run ending at row y in column x, and one monotone-stack pass
  // finds the largest rectangle under each row's histogram.
  std::vector<std::int32_t> height(W, 0);
  std::vector<std::size_t> stack;
  stack.reserve(W);
  std::int32_t best = 0;
  for (std::size_t y = 0; y < H; ++y) {
    std::int32_t row_busy = 0;
    for (std::size_t x = 0; x < W; ++x) {
      const bool occ = occupied_[y * W + x];
      row_busy += occ ? 1 : 0;
      busy_below_[(y + 1) * stride + x + 1] =
          busy_below_[y * stride + x + 1] + row_busy;
      height[x] = occ ? 0 : height[x] + 1;
    }
    for (std::size_t x = 0; x <= W; ++x) {
      const std::int32_t hcur = x < W ? height[x] : 0;
      while (!stack.empty() && height[stack.back()] > hcur) {
        const std::int32_t top = height[stack.back()];
        stack.pop_back();
        const std::size_t width = stack.empty() ? x : x - stack.back() - 1;
        best = std::max(best, top * static_cast<std::int32_t>(width));
      }
      if (x < W) stack.push_back(x);
    }
    stack.clear();
  }
  largest_free_ = best;
}

std::optional<PartitionId> PartitionAllocator::allocate(std::int32_t w,
                                                        std::int32_t h) {
  HPCCSIM_EXPECTS(w >= 1 && h >= 1);
  std::optional<Rect> r = find_first_fit(w, h);
  if (!r && w != h) r = find_first_fit(h, w);  // try the other orientation
  if (!r) return std::nullopt;
  mark(*r, true);
  partitions_.push_back(*r);
  return static_cast<PartitionId>(partitions_.size() - 1);
}

std::vector<std::pair<std::int32_t, std::int32_t>> candidate_shapes(
    std::int32_t nodes) {
  HPCCSIM_EXPECTS(nodes >= 1);
  std::vector<std::pair<std::int32_t, std::int32_t>> shapes;
  // Exact-area factorizations, from near-square toward skinny.
  for (std::int32_t h = static_cast<std::int32_t>(std::sqrt(nodes)); h >= 1;
       --h) {
    if (nodes % h == 0) shapes.emplace_back(nodes / h, h);
  }
  return shapes;
}

std::optional<PartitionId> PartitionAllocator::allocate_nodes(
    std::int32_t nodes) {
  for (const auto& [w, h] : candidate_shapes(nodes)) {
    if (auto id = allocate(w, h)) return id;
  }
  return std::nullopt;
}

void PartitionAllocator::release(PartitionId id) {
  HPCCSIM_EXPECTS(id >= 0 &&
                  id < static_cast<PartitionId>(partitions_.size()));
  auto& slot = partitions_[static_cast<std::size_t>(id)];
  HPCCSIM_EXPECTS(slot.has_value());
  mark(*slot, false);
  slot.reset();
}

const Rect& PartitionAllocator::rect_of(PartitionId id) const {
  HPCCSIM_EXPECTS(id >= 0 &&
                  id < static_cast<PartitionId>(partitions_.size()));
  const auto& slot = partitions_[static_cast<std::size_t>(id)];
  HPCCSIM_EXPECTS(slot.has_value());
  return *slot;
}

std::size_t PartitionAllocator::active_partitions() const {
  std::size_t n = 0;
  for (const auto& p : partitions_)
    if (p) ++n;
  return n;
}

double PartitionAllocator::fragmentation() const {
  const std::int32_t free_nodes = nodes_total() - busy_;
  if (free_nodes == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_) / free_nodes;
}

}  // namespace hpccsim::sched
