#include "linalg/distqr.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/dense_system.hpp"
#include "nx/collectives.hpp"
#include "proc/kernel_model.hpp"

namespace hpccsim::linalg {

namespace {

using nx::Group;
using nx::Message;
using nx::NxContext;
using nx::Payload;
using nx::ReduceOp;
using proc::Kernel;
using sim::Task;
using sim::Time;

struct QrState {
  QrConfig cfg;
  DenseSystem sys;  // process column 0's b becomes Q^T b, then x
  Time t_start, t_end;
  explicit QrState(const QrConfig& c)
      : cfg(c), sys(c.n, c.nb, c.grid, c.mode == ExecMode::Numeric) {}
};

Task<> qr_node_program(NxContext& ctx, QrState& st) {
  const QrConfig& cfg = st.cfg;
  const BlockCyclic& dist = st.sys.dist;
  const bool numeric = st.sys.numeric;
  const std::int64_t n = cfg.n;
  const int rank = ctx.rank();
  const std::int32_t prow = cfg.grid.prow_of(rank);
  const std::int32_t pcol = cfg.grid.pcol_of(rank);
  const std::int64_t lrows = dist.local_rows(prow);
  const std::int64_t lcols = dist.local_cols(pcol);

  Group rowg = process_row_group(cfg.grid, prow);
  Group colg = process_col_group(cfg.grid, pcol);
  Group world = Group::world(ctx);

  // ------------------------------------------------ setup (untimed) --
  if (numeric) co_await distribute_system(ctx, st.sys, cfg.seed);
  Matrix& A = st.sys.local[static_cast<std::size_t>(rank)];
  std::vector<double>& bloc = st.sys.local_b[static_cast<std::size_t>(rank)];
  co_await nx::barrier(ctx, world);
  if (rank == 0) st.t_start = ctx.now();

  // ------------------------------------------------- factorization --
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int32_t pc = dist.owner_pcol(j);
    const std::int32_t dr = dist.owner_prow(j);  // diagonal row owner
    const std::int64_t lr0 = dist.first_local_row_at_or_after(prow, j);
    const std::int64_t lr1 = dist.first_local_row_at_or_after(prow, j + 1);
    const std::int64_t mloc = lrows - lr0;    // my rows >= j
    const std::int64_t mbelow = lrows - lr1;  // my rows > j
    const Bytes v_bytes =
        nx::doubles_bytes(static_cast<std::size_t>(mloc) + 1);

    // ---- 1+2: reflector formation (column pc) and row broadcast ----
    Message vm;  // payload: [tau, v segment for my rows >= j]
    if (pcol == pc) {
      const std::int64_t lj = dist.local_col(j);
      Payload ssq_pay;
      if (numeric) {
        double ssq = 0.0;
        for (std::int64_t i = lr1; i < lrows; ++i) ssq += A(i, lj) * A(i, lj);
        ssq_pay = nx::payload_of(ssq);
      }
      if (mbelow > 0) co_await ctx.compute(Kernel::Dot, mbelow);
      Message red = co_await nx::allreduce(ctx, colg, ReduceOp::Sum,
                                           nx::doubles_bytes(1), ssq_pay);

      Payload params;  // [beta, tau, scale]
      if (numeric && prow == dr) {
        const double alpha = A(dist.local_row(j), lj);
        const double ssq = red.values().at(0);
        const double norm = std::sqrt(alpha * alpha + ssq);
        double beta = 0.0, tau = 0.0, scale = 0.0;
        if (norm > 0.0) {
          beta = alpha >= 0.0 ? -norm : norm;
          tau = (beta - alpha) / beta;
          scale = 1.0 / (alpha - beta);
        }
        A(dist.local_row(j), lj) = beta;  // R's diagonal entry
        params = nx::payload_of(beta, tau, scale);
      }
      Message pm = co_await nx::bcast(ctx, colg, cfg.grid.rank_of(dr, pc),
                                      nx::doubles_bytes(3), params);
      if (numeric && mbelow > 0)
        dscal(mbelow, pm.values().at(2), A.col(lj) + lr1);
      if (mbelow > 0) co_await ctx.compute(Kernel::Scal, mbelow);

      Payload vpay;
      if (numeric) {
        std::vector<double> out;
        out.reserve(static_cast<std::size_t>(mloc) + 1);
        out.push_back(pm.values().at(1));  // tau
        for (std::int64_t i = lr0; i < lrows; ++i)
          out.push_back(prow == dr && i == dist.local_row(j) ? 1.0
                                                             : A(i, lj));
        vpay = nx::make_payload(std::move(out));
      }
      vm = co_await nx::bcast(ctx, rowg, cfg.grid.rank_of(prow, pc),
                              v_bytes, std::move(vpay));
    } else {
      vm = co_await nx::bcast(ctx, rowg, cfg.grid.rank_of(prow, pc),
                              v_bytes, {});
    }

    const double tau = numeric ? vm.values().at(0) : 0.0;
    const double* v = numeric ? vm.values().data() + 1 : nullptr;

    // ---- 3: trailing update A[:, j+1:] -= tau v (v^T A) ----
    const std::int64_t tlc0 = dist.first_local_col_at_or_after(pcol, j + 1);
    const std::int64_t tn = lcols - tlc0;
    {
      Payload wpay;
      if (numeric && tn > 0) {
        std::vector<double> w(static_cast<std::size_t>(tn), 0.0);
        for (std::int64_t c = 0; c < tn; ++c) {
          const double* col = A.col(tlc0 + c) + lr0;
          double s = 0.0;
          for (std::int64_t i = 0; i < mloc; ++i) s += v[i] * col[i];
          w[static_cast<std::size_t>(c)] = s;
        }
        wpay = nx::make_payload(std::move(w));
      }
      if (tn > 0 && mloc > 0) co_await ctx.compute(Kernel::Gemm, mloc, tn, 1);
      // Every process column reduces its own w (sizes differ per column;
      // zero-length columns still participate to keep the collective
      // sequence aligned within their group — the group is per-column,
      // so sizes ARE uniform inside each group).
      Message wm = co_await nx::allreduce(
          ctx, colg, ReduceOp::Sum,
          nx::doubles_bytes(static_cast<std::size_t>(
              std::max<std::int64_t>(tn, 0))),
          std::move(wpay));
      if (numeric && tn > 0 && mloc > 0 && tau != 0.0) {
        const auto& w = wm.values();
        for (std::int64_t c = 0; c < tn; ++c) {
          double* col = A.col(tlc0 + c) + lr0;
          const double twc = tau * w[static_cast<std::size_t>(c)];
          if (twc == 0.0) continue;
          for (std::int64_t i = 0; i < mloc; ++i) col[i] -= twc * v[i];
        }
      }
      if (tn > 0 && mloc > 0) co_await ctx.compute(Kernel::Gemm, mloc, tn, 1);
    }

    // ---- 4: apply the reflector to b (process column 0) ----
    if (pcol == 0) {
      Payload wb_pay;
      if (numeric) {
        double s = 0.0;
        for (std::int64_t i = 0; i < mloc; ++i)
          s += v[i] * bloc[static_cast<std::size_t>(lr0 + i)];
        wb_pay = nx::payload_of(s);
      }
      if (mloc > 0) co_await ctx.compute(Kernel::Dot, mloc);
      Message wbm = co_await nx::allreduce(ctx, colg, ReduceOp::Sum,
                                           nx::doubles_bytes(1),
                                           std::move(wb_pay));
      if (numeric && tau != 0.0) {
        const double tw = tau * wbm.values().at(0);
        for (std::int64_t i = 0; i < mloc; ++i)
          bloc[static_cast<std::size_t>(lr0 + i)] -= tw * v[i];
      }
      if (mloc > 0) co_await ctx.compute(Kernel::Axpy, mloc);
    }
  }

  // ------------------- backward solve R x = Q^T b (timed, like LU) --
  co_await solve_triangle(ctx, st.sys, Triangle::Upper);

  co_await nx::barrier(ctx, world);
  if (rank == 0) st.t_end = ctx.now();

  // --------------------------------- verification (numeric, untimed) --
  if (numeric) co_await gather_solution(ctx, st.sys);
}

}  // namespace

QrResult run_distributed_qr(nx::NxMachine& machine, const QrConfig& cfg) {
  HPCCSIM_EXPECTS(cfg.grid.size() == machine.nodes());
  HPCCSIM_EXPECTS(cfg.n >= 1 && cfg.nb >= 1);

  QrState st(cfg);

  const auto before = machine.total_stats();
  machine.run([&st](NxContext& ctx) { return qr_node_program(ctx, st); });
  const auto after = machine.total_stats();

  QrResult res;
  res.elapsed = st.t_end - st.t_start;
  const double nn = static_cast<double>(cfg.n);
  res.gflops = (4.0 / 3.0 * nn * nn * nn) / res.elapsed.as_sec() / 1e9;
  res.residual = st.sys.residual;
  res.messages = after.sends - before.sends;
  res.bytes_moved = after.bytes_sent - before.bytes_sent;
  return res;
}

}  // namespace hpccsim::linalg
