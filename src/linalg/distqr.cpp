#include "linalg/distqr.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/verify.hpp"
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

constexpr int kTagScatterA = 150;
constexpr int kTagScatterB = 151;
constexpr int kTagGatherX = 450;
constexpr int kTagSolveFetch = 760;
constexpr int kTagSolveStore = 780;
constexpr int kTagSolveUpdate = 800;

struct QrState {
  QrConfig cfg;
  BlockCyclic dist;
  bool numeric;
  Matrix a_full;                             // rank 0, pristine
  std::vector<double> b;                     // rank 0, pristine
  std::vector<Matrix> local;
  std::vector<std::vector<double>> local_b;  // pcol 0: b -> Q^T b -> x
  std::optional<double> residual;
  Time t_start, t_end;
  explicit QrState(const QrConfig& c)
      : cfg(c), dist(c.n, c.nb, c.grid),
        numeric(c.mode == ExecMode::Numeric) {}
};

Task<> qr_node_program(NxContext& ctx, QrState& st) {
  const QrConfig& cfg = st.cfg;
  const BlockCyclic& dist = st.dist;
  const std::int64_t n = cfg.n;
  const std::int32_t P = cfg.grid.rows, Q = cfg.grid.cols;
  const int rank = ctx.rank();
  const std::int32_t prow = cfg.grid.prow_of(rank);
  const std::int32_t pcol = cfg.grid.pcol_of(rank);
  const std::int64_t lrows = dist.local_rows(prow);
  const std::int64_t lcols = dist.local_cols(pcol);

  Group rowg = process_row_group(cfg.grid, prow);
  Group colg = process_col_group(cfg.grid, pcol);
  Group world = Group::world(ctx);

  Matrix& A = st.local[static_cast<std::size_t>(rank)];
  std::vector<double>& bloc = st.local_b[static_cast<std::size_t>(rank)];

  // ------------------------------------------------ setup (untimed) --
  if (st.numeric) {
    A = Matrix(lrows, lcols);
    if (rank == 0) {
      Rng rng(cfg.seed);
      st.a_full = Matrix::random(n, n, rng);
      st.b = random_vector(n, rng);
      for (int r = 0; r < ctx.nodes(); ++r) {
        const std::int32_t rp = cfg.grid.prow_of(r);
        const std::int32_t rq = cfg.grid.pcol_of(r);
        const std::int64_t rl = dist.local_rows(rp);
        const std::int64_t rc = dist.local_cols(rq);
        std::vector<double> block(static_cast<std::size_t>(rl * rc));
        for (std::int64_t lc = 0; lc < rc; ++lc)
          for (std::int64_t lr = 0; lr < rl; ++lr)
            block[static_cast<std::size_t>(lc * rl + lr)] =
                st.a_full(dist.global_row(rp, lr), dist.global_col(rq, lc));
        if (r == 0) {
          std::copy(block.begin(), block.end(), A.data().begin());
        } else {
          const Bytes nbytes = nx::doubles_bytes(block.size());
          co_await ctx.send(r, kTagScatterA, nbytes,
                            nx::make_payload(std::move(block)));
        }
      }
      for (std::int32_t rp = 0; rp < P; ++rp) {
        const std::int64_t rl = dist.local_rows(rp);
        std::vector<double> seg(static_cast<std::size_t>(rl));
        for (std::int64_t lr = 0; lr < rl; ++lr)
          seg[static_cast<std::size_t>(lr)] =
              st.b[static_cast<std::size_t>(dist.global_row(rp, lr))];
        const int dst = cfg.grid.rank_of(rp, 0);
        if (dst == 0) {
          st.local_b[0] = std::move(seg);
        } else {
          const Bytes nbytes = nx::doubles_bytes(seg.size());
          co_await ctx.send(dst, kTagScatterB, nbytes,
                            nx::make_payload(std::move(seg)));
        }
      }
    } else {
      Message m = co_await ctx.recv(0, kTagScatterA);
      std::copy(m.values().begin(), m.values().end(), A.data().begin());
      if (pcol == 0) {
        Message mb = co_await ctx.recv(0, kTagScatterB);
        st.local_b[static_cast<std::size_t>(rank)] = mb.values();
      }
    }
  }
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
      if (st.numeric) {
        double ssq = 0.0;
        for (std::int64_t i = lr1; i < lrows; ++i) ssq += A(i, lj) * A(i, lj);
        ssq_pay = nx::payload_of(ssq);
      }
      if (mbelow > 0) co_await ctx.compute(Kernel::Dot, mbelow);
      Message red = co_await nx::allreduce(ctx, colg, ReduceOp::Sum,
                                           nx::doubles_bytes(1), ssq_pay);

      Payload params;  // [beta, tau, scale]
      if (st.numeric && prow == dr) {
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
      if (st.numeric && mbelow > 0)
        dscal(mbelow, pm.values().at(2), A.col(lj) + lr1);
      if (mbelow > 0) co_await ctx.compute(Kernel::Scal, mbelow);

      Payload vpay;
      if (st.numeric) {
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

    const double tau = st.numeric ? vm.values().at(0) : 0.0;
    const double* v = st.numeric ? vm.values().data() + 1 : nullptr;

    // ---- 3: trailing update A[:, j+1:] -= tau v (v^T A) ----
    const std::int64_t tlc0 = dist.first_local_col_at_or_after(pcol, j + 1);
    const std::int64_t tn = lcols - tlc0;
    {
      Payload wpay;
      if (st.numeric && tn > 0) {
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
      if (st.numeric && tn > 0 && mloc > 0 && tau != 0.0) {
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
      if (st.numeric) {
        double s = 0.0;
        for (std::int64_t i = 0; i < mloc; ++i)
          s += v[i] * bloc[static_cast<std::size_t>(lr0 + i)];
        wb_pay = nx::payload_of(s);
      }
      if (mloc > 0) co_await ctx.compute(Kernel::Dot, mloc);
      Message wbm = co_await nx::allreduce(ctx, colg, ReduceOp::Sum,
                                           nx::doubles_bytes(1),
                                           std::move(wb_pay));
      if (st.numeric && tau != 0.0) {
        const double tw = tau * wbm.values().at(0);
        for (std::int64_t i = 0; i < mloc; ++i)
          bloc[static_cast<std::size_t>(lr0 + i)] -= tw * v[i];
      }
      if (mloc > 0) co_await ctx.compute(Kernel::Axpy, mloc);
    }
  }

  // ------------------- backward solve R x = Q^T b (timed, like LU) --
  const std::int64_t nblocks = dist.block_count();
  for (std::int64_t step = 0; step < nblocks; ++step) {
    const std::int64_t k = nblocks - 1 - step;
    const std::int64_t j0 = k * cfg.nb;
    const std::int64_t jb = std::min<std::int64_t>(cfg.nb, n - j0);
    const auto pc = static_cast<std::int32_t>(k % Q);
    const auto pr = static_cast<std::int32_t>(k % P);
    const int tagf = kTagSolveFetch + static_cast<int>(k % 16);
    const int tags = kTagSolveStore + static_cast<int>(k % 16);
    const int tagu = kTagSolveUpdate + static_cast<int>(k % 16);
    const std::int64_t lck0 = dist.first_local_col_at_or_after(pcol, j0);
    const std::int64_t lrk = dist.local_row(j0);  // valid on prow==pr

    if (prow == pr && pcol == 0 && pc != 0) {
      Payload pay;
      if (st.numeric) {
        std::vector<double> seg(bloc.begin() + lrk, bloc.begin() + lrk + jb);
        pay = nx::make_payload(std::move(seg));
      }
      co_await ctx.send(cfg.grid.rank_of(pr, pc), tagf,
                        nx::doubles_bytes(static_cast<std::size_t>(jb)), pay);
    }
    Payload ypay;
    if (prow == pr && pcol == pc) {
      std::vector<double> y;
      if (st.numeric) {
        if (pc == 0) {
          y.assign(bloc.begin() + lrk, bloc.begin() + lrk + jb);
        } else {
          Message m = co_await ctx.recv(cfg.grid.rank_of(pr, 0), tagf);
          y = m.values();
        }
        dtrsm_upper(jb, 1, A.col(lck0) + lrk, lrows, y.data(), jb);
      } else if (pc != 0) {
        (void)co_await ctx.recv(cfg.grid.rank_of(pr, 0), tagf);
      }
      co_await ctx.compute(Kernel::Trsm, jb, 1);
      if (st.numeric) {
        if (pc == 0) std::copy(y.begin(), y.end(), bloc.begin() + lrk);
        ypay = nx::make_payload(std::move(y));
      }
      if (pc != 0)
        co_await ctx.send(cfg.grid.rank_of(pr, 0), tags,
                          nx::doubles_bytes(static_cast<std::size_t>(jb)),
                          ypay);
    }
    if (prow == pr && pcol == 0 && pc != 0) {
      Message m = co_await ctx.recv(cfg.grid.rank_of(pr, pc), tags);
      if (st.numeric)
        std::copy(m.values().begin(), m.values().end(), bloc.begin() + lrk);
    }
    if (pcol == pc) {
      Message ym = co_await nx::bcast(
          ctx, colg, cfg.grid.rank_of(pr, pcol),
          nx::doubles_bytes(static_cast<std::size_t>(jb)), ypay);
      const std::int64_t lr_hi = dist.first_local_row_at_or_after(prow, j0);
      if (lr_hi > 0) {
        Payload upay;
        if (st.numeric) {
          const auto& y = ym.values();
          std::vector<double> u(static_cast<std::size_t>(lr_hi), 0.0);
          for (std::int64_t c = 0; c < jb; ++c) {
            const double yc = y[static_cast<std::size_t>(c)];
            if (yc == 0.0) continue;
            const double* col = A.col(lck0 + c);
            for (std::int64_t i = 0; i < lr_hi; ++i)
              u[static_cast<std::size_t>(i)] += col[i] * yc;
          }
          upay = nx::make_payload(std::move(u));
        }
        co_await ctx.compute(Kernel::Gemm, lr_hi, 1, jb);
        if (pc == 0) {
          if (st.numeric) {
            const auto& u = *upay;
            for (std::int64_t i = 0; i < lr_hi; ++i)
              bloc[static_cast<std::size_t>(i)] -=
                  u[static_cast<std::size_t>(i)];
          }
          co_await ctx.compute(Kernel::Axpy, lr_hi);
        } else {
          co_await ctx.send(cfg.grid.rank_of(prow, 0), tagu,
                            nx::doubles_bytes(static_cast<std::size_t>(lr_hi)),
                            upay);
        }
      }
    }
    if (pcol == 0 && pc != 0) {
      const std::int64_t lr_hi = dist.first_local_row_at_or_after(prow, j0);
      if (lr_hi > 0) {
        Message m = co_await ctx.recv(cfg.grid.rank_of(prow, pc), tagu);
        if (st.numeric) {
          const auto& u = m.values();
          for (std::int64_t i = 0; i < lr_hi; ++i)
            bloc[static_cast<std::size_t>(i)] -= u[static_cast<std::size_t>(i)];
        }
        co_await ctx.compute(Kernel::Axpy, lr_hi);
      }
    }
  }

  co_await nx::barrier(ctx, world);
  if (rank == 0) st.t_end = ctx.now();

  // --------------------------------- verification (numeric, untimed) --
  if (st.numeric) {
    if (rank == 0) {
      std::vector<double> x(static_cast<std::size_t>(n));
      for (std::int32_t rp = 0; rp < P; ++rp) {
        const int src = cfg.grid.rank_of(rp, 0);
        std::vector<double> seg;
        if (src == 0) {
          seg = bloc;
        } else {
          Message m = co_await ctx.recv(src, kTagGatherX);
          seg = m.values();
        }
        const std::int64_t rl = dist.local_rows(rp);
        HPCCSIM_ASSERT(static_cast<std::int64_t>(seg.size()) == rl);
        for (std::int64_t lr = 0; lr < rl; ++lr)
          x[static_cast<std::size_t>(dist.global_row(rp, lr))] =
              seg[static_cast<std::size_t>(lr)];
      }
      st.residual = scaled_residual(st.a_full, x, st.b);
    } else if (pcol == 0) {
      std::vector<double> seg = bloc;
      const Bytes nbytes = nx::doubles_bytes(seg.size());
      co_await ctx.send(0, kTagGatherX, nbytes,
                        nx::make_payload(std::move(seg)));
    }
  }
}

}  // namespace

QrResult run_distributed_qr(nx::NxMachine& machine, const QrConfig& cfg) {
  HPCCSIM_EXPECTS(cfg.grid.size() == machine.nodes());
  HPCCSIM_EXPECTS(cfg.n >= 1 && cfg.nb >= 1);

  QrState st(cfg);
  st.local.resize(static_cast<std::size_t>(machine.nodes()));
  st.local_b.resize(static_cast<std::size_t>(machine.nodes()));

  const auto before = machine.total_stats();
  machine.run([&st](NxContext& ctx) { return qr_node_program(ctx, st); });
  const auto after = machine.total_stats();

  QrResult res;
  res.elapsed = st.t_end - st.t_start;
  const double nn = static_cast<double>(cfg.n);
  res.gflops = (4.0 / 3.0 * nn * nn * nn) / res.elapsed.as_sec() / 1e9;
  res.residual = st.residual;
  res.messages = after.sends - before.sends;
  res.bytes_moved = after.bytes_sent - before.bytes_sent;
  return res;
}

}  // namespace hpccsim::linalg
