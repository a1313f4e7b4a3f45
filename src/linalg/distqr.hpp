// Distributed QR factorization (Householder reflections).
//
// The second dense factorization of the ASTA algorithm stack: where LU
// pivots rows (and is the LINPACK benchmark), QR is the numerically
// robust workhorse for least squares and eigen-preprocessing in the CAS
// codes. The distributed algorithm here is the classic column-by-column
// Householder over a 2-D block-cyclic layout:
//
//   for each column j:
//     1. the owning process COLUMN computes ||x||^2 below the diagonal
//        (allreduce down the column), the diagonal owner forms
//        (beta, tau) and everyone scales its local reflector segment;
//     2. the reflector v (and tau) is broadcast along process ROWS;
//     3. every process applies I - tau v v^T to its local trailing
//        columns: partial w = v^T A summed by a column allreduce, then
//        the rank-1 update A -= tau v w;
//     4. process column 0 applies the reflector to b, accumulating
//        Q^T b in place.
//
// Afterwards R x = Q^T b is solved by the upper pass of the distributed
// substitution the LU solver also runs, and (numeric mode) the solution
// is gathered and verified with the scaled residual against pristine A,
// b. Distribution, substitution and gather are LU's own code
// (linalg/dense_system.hpp).
//
// Communication pattern: ~4 column-group collectives and one row
// broadcast per column — reduction-dominated, the dual of LU's
// broadcast-dominated schedule.
#pragma once

#include <cstdint>
#include <optional>

#include "core/time.hpp"
#include "linalg/blockcyclic.hpp"
#include "linalg/distlu.hpp"  // ExecMode
#include "nx/machine_runtime.hpp"

namespace hpccsim::linalg {

struct QrConfig {
  std::int64_t n = 256;  ///< square system
  std::int64_t nb = 32;  ///< block-cyclic distribution block
  ProcessGrid grid;
  ExecMode mode = ExecMode::Numeric;
  std::uint64_t seed = 1;
};

struct QrResult {
  sim::Time elapsed;
  /// 4/3 n^3 / elapsed (the QR flop count; twice LU's).
  double gflops = 0.0;
  /// Numeric: HPL-style scaled residual of the QR solve.
  std::optional<double> residual;
  std::uint64_t messages = 0;
  Bytes bytes_moved = 0;
};

QrResult run_distributed_qr(nx::NxMachine& machine, const QrConfig& cfg);

}  // namespace hpccsim::linalg
