// Distributed LU factorization with partial pivoting — the LINPACK
// benchmark code of the paper ("13 GFLOPS ... OF ORDER 25,000 BY 25,000").
//
// The algorithm is the classic right-looking blocked LU over a 2-D
// block-cyclic distribution (what HPL later canonicalized):
//
//   for each nb-wide panel k:
//     1. the owning process COLUMN factors the panel: per column,
//        a MaxAbsLoc allreduce finds the pivot, the pivot row is swapped
//        and broadcast down the column, and local rank-1 updates follow;
//     2. the pivot sequence is broadcast along process ROWS and every
//        process applies the row swaps to its non-panel columns
//        (pairwise row-segment exchanges between process rows);
//     3. the L panel is broadcast along process rows;
//     4. the owning process ROW solves L11 U12 = A12 (dtrsm) and
//        broadcasts U12 down process columns;
//     5. every process applies the local trailing update (dgemm);
//
// then L y = b and U x = y are solved by the blocked substitution of
// linalg/dense_system.hpp, which LINPACK times with the factorization.
//
// Execution modes:
//   Numeric — local data is real; every kernel executes; the result is
//     verified against a reference factorization (small n).
//   Modeled — no data moves; the *identical* message schedule runs with
//     null payloads and compute time charged from the node kernel model.
//     This is how order-25,000 runs execute in seconds of host time while
//     preserving the performance-relevant structure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/time.hpp"
#include "linalg/blockcyclic.hpp"
#include "linalg/matrix.hpp"
#include "nx/machine_runtime.hpp"

namespace hpccsim::linalg {

enum class ExecMode { Numeric, Modeled };

struct LuConfig {
  std::int64_t n = 1000;
  std::int64_t nb = 64;
  /// Process grid; grid.size() must equal the machine's node count and
  /// the grid must match the mesh shape (rows x cols) for locality.
  ProcessGrid grid;
  ExecMode mode = ExecMode::Modeled;
  std::uint64_t seed = 1;
};

struct LuResult {
  sim::Time elapsed;        ///< factorization + solve simulated time
  double gflops = 0.0;      ///< lu_solve_flops(n) / elapsed
  /// Numeric mode: the HPL scaled residual of the final solve (values of
  /// O(1) pass); Modeled mode: nullopt.
  std::optional<double> residual;
  std::uint64_t messages = 0;
  Bytes bytes_moved = 0;
  Flops flops_charged = 0;
  sim::Time compute_time;   ///< summed node busy time
};

/// Run the distributed LU on a machine. The machine must have exactly
/// cfg.grid.size() nodes. Throws on singular input (numeric mode).
LuResult run_distributed_lu(nx::NxMachine& machine, const LuConfig& cfg);

/// Convenience: LuConfig whose grid matches a machine's mesh.
LuConfig lu_config_for(const nx::NxMachine& machine, std::int64_t n,
                       std::int64_t nb = 64,
                       ExecMode mode = ExecMode::Modeled);

/// The recorded modeled-mode communication schedule of one
/// (n, nb, grid) configuration: one compact SkelOp
/// stream per rank (16 bytes/op; docs/MODEL.md §13). The schedule
/// never reads the clock or payload values, so one skeleton replays
/// validly under any NodeModel — the basis of kernel calibration.
struct LuSkeleton {
  std::int64_t n = 0;
  std::int64_t nb = 0;
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  std::vector<std::vector<nx::SkelOp>> per_rank;
  std::size_t total_ops() const;
};

/// Run a modeled LU on `machine` while recording its schedule. The run
/// itself is byte-identical to an unrecorded run (recording is
/// observation-only); `result`, when non-null, receives its LuResult.
/// Returns nullptr if the schedule is not representable (it always is
/// for the LU programs here) — the result is still valid then.
std::shared_ptr<const LuSkeleton> derive_lu_skeleton(nx::NxMachine& machine,
                                                     const LuConfig& cfg,
                                                     LuResult* result);

/// Re-issue a recorded schedule on `machine`. With the same machine
/// config this reproduces the derived run's engine event stream
/// byte-for-byte (same counters, histograms and timings; only the
/// machine's lu.skeleton.* counters differ — see docs/MODEL.md §13).
/// With a different NodeModel it
/// yields that model's timings for the same schedule.
LuResult replay_lu_skeleton(nx::NxMachine& machine, const LuConfig& cfg,
                            const LuSkeleton& skel);

}  // namespace hpccsim::linalg
