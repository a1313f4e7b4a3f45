#include "linalg/blockcyclic.hpp"

#include <cmath>

#include "nx/collectives.hpp"

namespace hpccsim::linalg {

ProcessGrid ProcessGrid::near_square(std::int32_t nodes) {
  HPCCSIM_EXPECTS(nodes > 0);
  std::int32_t p = static_cast<std::int32_t>(std::sqrt(nodes));
  while (p > 1 && nodes % p != 0) --p;
  return ProcessGrid{p, nodes / p};
}

nx::Group process_row_group(const ProcessGrid& grid, std::int32_t prow) {
  return nx::Group(grid.rank_of(prow, 0), /*stride=*/1, grid.cols,
                   /*tag_space=*/1 + prow);
}

nx::Group process_col_group(const ProcessGrid& grid, std::int32_t pcol) {
  return nx::Group(grid.rank_of(0, pcol), /*stride=*/grid.cols, grid.rows,
                   /*tag_space=*/1 + grid.rows + pcol);
}

std::int64_t BlockCyclic::numroc(std::int64_t n, std::int64_t nb,
                                 std::int32_t iproc, std::int32_t nprocs) {
  HPCCSIM_EXPECTS(iproc >= 0 && iproc < nprocs);
  const std::int64_t nblocks = n / nb;
  std::int64_t count = (nblocks / nprocs) * nb;
  const std::int64_t extra = nblocks % nprocs;
  if (iproc < extra) count += nb;
  else if (iproc == extra) count += n % nb;
  return count;
}

std::int64_t BlockCyclic::first_local_row_at_or_after(std::int32_t prow,
                                                      std::int64_t g0) const {
  // Smallest local row whose global image is >= g0.
  const std::int64_t gblock = g0 / nb_;
  const auto owner = static_cast<std::int32_t>(gblock % grid_.rows);
  std::int64_t lblock = gblock / grid_.rows;
  if (prow == owner) return lblock * nb_ + g0 % nb_;
  if (prow < owner) ++lblock;  // our next block starts after g0's block
  return lblock * nb_;
}

std::int64_t BlockCyclic::first_local_col_at_or_after(std::int32_t pcol,
                                                      std::int64_t g0) const {
  const std::int64_t gblock = g0 / nb_;
  const auto owner = static_cast<std::int32_t>(gblock % grid_.cols);
  std::int64_t lblock = gblock / grid_.cols;
  if (pcol == owner) return lblock * nb_ + g0 % nb_;
  if (pcol < owner) ++lblock;
  return lblock * nb_;
}

}  // namespace hpccsim::linalg
