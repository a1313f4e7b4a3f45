// Dense column-major matrix (the LINPACK storage convention).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace hpccsim::linalg {

using Index = std::int64_t;

class Matrix {
 public:
  Matrix() = default;
  Matrix(Index rows, Index cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols), 0.0) {
    HPCCSIM_EXPECTS(rows >= 0 && cols >= 0);
  }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  double& operator()(Index r, Index c) {
    HPCCSIM_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(c * rows_ + r)];
  }
  double operator()(Index r, Index c) const {
    HPCCSIM_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(c * rows_ + r)];
  }

  /// Column-major contiguous storage.
  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }
  /// Pointer to the top of column c.
  double* col(Index c) { return &data_[static_cast<std::size_t>(c * rows_)]; }
  const double* col(Index c) const {
    return &data_[static_cast<std::size_t>(c * rows_)];
  }

  friend bool operator==(const Matrix&, const Matrix&) = default;

  /// ‖A‖₁ (max column sum) — the norm in the LINPACK residual check.
  double norm_one() const;

  static Matrix identity(Index n);
  /// Uniform entries in [-1, 1) — the HPL test matrix distribution.
  static Matrix random(Index rows, Index cols, Rng& rng);
  /// Diagonally dominant random matrix (always nonsingular; for solver
  /// tests that should not be rescued by pivoting).
  static Matrix random_dominant(Index n, Rng& rng);

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

/// Dense vector helpers.
std::vector<double> random_vector(Index n, Rng& rng);

}  // namespace hpccsim::linalg
