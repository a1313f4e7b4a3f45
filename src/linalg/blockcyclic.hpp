// 2-D block-cyclic data distribution (the ScaLAPACK/HPL layout).
//
// A global n x n matrix is tiled into nb x nb blocks; block (I, J) lives
// on process (I mod P, J mod Q) of a P x Q process grid. This spreads
// every stage of the LU factorization across the whole grid, which is
// what gives the algorithm its load balance.
#pragma once

#include <cstdint>

#include "util/assert.hpp"

namespace hpccsim::nx {
class Group;
}  // namespace hpccsim::nx

namespace hpccsim::linalg {

struct ProcessGrid {
  std::int32_t rows = 1;  ///< P
  std::int32_t cols = 1;  ///< Q

  std::int32_t size() const { return rows * cols; }
  /// Row-major rank: rank = prow * Q + pcol (matches the mesh layout).
  std::int32_t rank_of(std::int32_t prow, std::int32_t pcol) const {
    HPCCSIM_EXPECTS(prow >= 0 && prow < rows && pcol >= 0 && pcol < cols);
    return prow * cols + pcol;
  }
  std::int32_t prow_of(std::int32_t rank) const { return rank / cols; }
  std::int32_t pcol_of(std::int32_t rank) const { return rank % cols; }

  /// Near-square grid for a node count (P <= Q, P*Q == nodes).
  static ProcessGrid near_square(std::int32_t nodes);
};

/// The communicator of process row `prow` (ranks prow * Q, ..., prow * Q
/// + Q - 1; tag space 1 + prow) and of process column `pcol` (ranks pcol,
/// pcol + Q, ..., pcol + (P - 1) * Q; tag space 1 + P + pcol). The tag
/// spaces keep every row, every column and the world (0) apart.
nx::Group process_row_group(const ProcessGrid& grid, std::int32_t prow);
nx::Group process_col_group(const ProcessGrid& grid, std::int32_t pcol);

class BlockCyclic {
 public:
  BlockCyclic(std::int64_t n, std::int64_t nb, ProcessGrid grid)
      : n_(n), nb_(nb), grid_(grid) {
    HPCCSIM_EXPECTS(n >= 0 && nb >= 1);
  }

  std::int64_t n() const { return n_; }
  std::int64_t nb() const { return nb_; }
  const ProcessGrid& grid() const { return grid_; }
  std::int64_t block_count() const { return (n_ + nb_ - 1) / nb_; }

  /// Which process row / column owns global row / column g.
  std::int32_t owner_prow(std::int64_t grow) const {
    return static_cast<std::int32_t>((grow / nb_) % grid_.rows);
  }
  std::int32_t owner_pcol(std::int64_t gcol) const {
    return static_cast<std::int32_t>((gcol / nb_) % grid_.cols);
  }

  /// Local index of a global row on its owner process row.
  std::int64_t local_row(std::int64_t grow) const {
    const std::int64_t block = grow / nb_;
    return (block / grid_.rows) * nb_ + grow % nb_;
  }
  std::int64_t local_col(std::int64_t gcol) const {
    const std::int64_t block = gcol / nb_;
    return (block / grid_.cols) * nb_ + gcol % nb_;
  }

  /// Inverse maps: global index from (process row, local row).
  std::int64_t global_row(std::int32_t prow, std::int64_t lrow) const {
    const std::int64_t lblock = lrow / nb_;
    return (lblock * grid_.rows + prow) * nb_ + lrow % nb_;
  }
  std::int64_t global_col(std::int32_t pcol, std::int64_t lcol) const {
    const std::int64_t lblock = lcol / nb_;
    return (lblock * grid_.cols + pcol) * nb_ + lcol % nb_;
  }

  /// Number of local rows / cols held by a process row / column
  /// (ScaLAPACK NUMROC).
  std::int64_t local_rows(std::int32_t prow) const {
    return numroc(n_, nb_, prow, grid_.rows);
  }
  std::int64_t local_cols(std::int32_t pcol) const {
    return numroc(n_, nb_, pcol, grid_.cols);
  }

  /// First local row index >= the local image of global row g0.
  std::int64_t first_local_row_at_or_after(std::int32_t prow,
                                           std::int64_t g0) const;
  std::int64_t first_local_col_at_or_after(std::int32_t pcol,
                                           std::int64_t g0) const;

  static std::int64_t numroc(std::int64_t n, std::int64_t nb,
                             std::int32_t iproc, std::int32_t nprocs);

 private:
  std::int64_t n_;
  std::int64_t nb_;
  ProcessGrid grid_;
};

}  // namespace hpccsim::linalg
