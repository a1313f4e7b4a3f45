// SUMMA: Scalable Universal Matrix Multiplication Algorithm.
//
// C += A * B on a P x Q process grid with block-cyclic-free (pure block)
// distribution: at step k, the process column owning panel k of A
// broadcasts it along rows, the process row owning panel k of B
// broadcasts it along columns, and every process multiplies locally.
// The second distributed kernel (after LU) of the Delta application
// stack. No exhibit or example runs it; linalg_test checks its numeric
// product against a reference, and integration_test runs it beside LU
// on one machine.
#pragma once

#include <cstdint>
#include <optional>

#include "core/time.hpp"
#include "linalg/blockcyclic.hpp"
#include "linalg/matrix.hpp"
#include "nx/machine_runtime.hpp"

namespace hpccsim::linalg {

enum class ExecMode;  // from distlu.hpp

struct SummaConfig {
  std::int64_t n = 512;   ///< square matrices n x n
  std::int64_t kb = 64;   ///< panel width per broadcast step
  ProcessGrid grid;
  bool numeric = true;
  std::uint64_t seed = 1;
};

struct SummaResult {
  sim::Time elapsed;
  double gflops = 0.0;  ///< 2 n^3 / elapsed
  /// Numeric mode: Frobenius relative error vs. the local reference
  /// product; nullopt in modeled mode.
  std::optional<double> error;
  std::uint64_t messages = 0;
  Bytes bytes_moved = 0;
};

SummaResult run_summa(nx::NxMachine& machine, const SummaConfig& cfg);

}  // namespace hpccsim::linalg
