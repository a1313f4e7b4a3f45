#include "linalg/matrix.hpp"

#include <cmath>

namespace hpccsim::linalg {

double Matrix::norm_one() const {
  double best = 0.0;
  for (Index c = 0; c < cols_; ++c) {
    double s = 0.0;
    const double* p = col(c);
    for (Index r = 0; r < rows_; ++r) s += std::fabs(p[r]);
    best = std::max(best, s);
  }
  return best;
}

Matrix Matrix::identity(Index n) {
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::random(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix Matrix::random_dominant(Index n, Rng& rng) {
  Matrix m = random(n, n, rng);
  for (Index i = 0; i < n; ++i)
    m(i, i) = static_cast<double>(n) + rng.uniform(0.0, 1.0);
  return m;
}

std::vector<double> random_vector(Index n, Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

}  // namespace hpccsim::linalg
