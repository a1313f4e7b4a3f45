// The block-cyclic dense system A x = b that both distributed
// factorizations solve (distlu, distqr), and the three node-program
// phases they share around their own factorization:
//
//   - rank 0 generates A and b and distributes them: every rank gets its
//     block-cyclic share of A, process column 0 its rows of b;
//   - after the factorization has left a triangle of A in place and b
//     transformed to match, the blocked triangular substitution through
//     process column 0 solves for x, one call per pass: LU runs the
//     unit-lower pass and then the upper one, QR the upper pass only;
//   - rank 0 gathers x from process column 0 and records the HPL scaled
//     residual against its pristine A and b.
//
// Distribution and gather are numeric-mode only and untimed. The
// substitution runs in both modes with one message schedule; the
// modeled mode moves null payloads and charges kernel time only.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/task.hpp"
#include "linalg/blockcyclic.hpp"
#include "linalg/matrix.hpp"

namespace hpccsim::nx {
class NxContext;
}  // namespace hpccsim::nx

namespace hpccsim::linalg {

/// Shared by every rank's node program for the duration of one run.
/// Each rank touches only its own slots of `local` and `local_b`; only
/// rank 0 touches `a_full`, `b` and `residual`.
struct DenseSystem {
  DenseSystem(std::int64_t n, std::int64_t nb, ProcessGrid grid,
              bool numeric_mode);

  BlockCyclic dist;
  bool numeric;

  // Numeric mode only.
  Matrix a_full;                 // original A (rank 0)
  std::vector<double> b;         // right-hand side (rank 0, pristine)
  std::vector<Matrix> local;     // per-rank local block-cyclic storage
  // Per-rank slice of b, then y, then x, held by process-column-0 ranks;
  // its rows follow the matrix rows.
  std::vector<std::vector<double>> local_b;
  std::optional<double> residual;
};

/// Which triangle one substitution pass solves against: the unit-lower
/// L, forward over the blocks, or the upper U (QR's R), backward.
enum class Triangle { UnitLower, Upper };

/// Numeric mode: rank 0 generates A and b from `seed` and
/// sends every rank its local block of A and every process-column-0
/// rank its rows of b.
sim::Task<> distribute_system(nx::NxContext& ctx, DenseSystem& sys,
                              std::uint64_t seed);

/// One pass of the right-looking blocked substitution, solving
/// the local triangle of A against the slice of b on process column 0 in
/// place.
sim::Task<> solve_triangle(nx::NxContext& ctx, DenseSystem& sys,
                           Triangle tri);

/// Numeric mode: rank 0 gathers x and sets `sys.residual`.
sim::Task<> gather_solution(nx::NxContext& ctx, DenseSystem& sys);

}  // namespace hpccsim::linalg
