// Compute-kernel timing model for an i860-class node.
//
// The model charges time for a kernel invocation as
//
//     t = startup + flops(kernel, shape) / (peak * efficiency(kernel))
//
// where efficiency is kernel-specific: dense matrix multiply sustains a
// large fraction of peak (hand-coded assembly on the real machine), while
// vector-vector operations are memory-bound and sustain far less. These
// efficiencies are the calibration knobs that let the modeled LINPACK run
// land where the paper's numbers do (see proc/machine.cpp presets).
#pragma once

#include <cstdint>
#include <string>

#include "core/time.hpp"
#include "util/units.hpp"

namespace hpccsim::proc {

enum class Kernel {
  Gemm,    ///< C -= A*B (the LU trailing update; compute bound)
  Trsm,    ///< triangular solve with many right-hand sides
  Getf2,   ///< unblocked panel factorization (rank-1 updates)
  Axpy,    ///< y += a*x (memory bound)
  Dot,     ///< dot product (memory bound)
  Scal,    ///< x *= a
  Swap,    ///< row swap (pure memory traffic)
  Copy,    ///< memory copy
  Stencil, ///< 5-point relaxation sweep (examples/heat2d)
  Fft,     ///< complex radix-2 FFT of length m (5 m log2 m flops)
};

/// Flop count of a kernel invocation with shape (m, n, k).
/// Shapes follow BLAS conventions; unused dimensions are ignored.
Flops kernel_flops(Kernel k, std::int64_t m, std::int64_t n, std::int64_t p);

struct NodeModel {
  /// Double-precision peak of one node.
  FlopsPerSecond peak = mflops(60.0);
  /// Local DRAM capacity (the Delta's numeric nodes carried 16 MiB).
  Bytes memory = 16 * MiB;
  /// Sustained fraction of peak, per kernel class.
  double gemm_efficiency = 0.58;
  double trsm_efficiency = 0.40;
  double panel_efficiency = 0.18;   // Getf2: rank-1, memory bound
  double vector_efficiency = 0.22;  // Axpy/Dot/Scal
  double memory_bw_bytes_per_sec = 64e6;  // Swap/Copy path
  /// Fixed per-call overhead (loop setup, function call).
  sim::Time kernel_startup = sim::Time::us(2);

  /// Time to execute one kernel invocation.
  sim::Time time_for(Kernel k, std::int64_t m, std::int64_t n,
                     std::int64_t p) const;

  /// Effective sustained rate of a kernel at a given shape.
  FlopsPerSecond sustained(Kernel k, std::int64_t m, std::int64_t n,
                           std::int64_t p) const;
};

}  // namespace hpccsim::proc
