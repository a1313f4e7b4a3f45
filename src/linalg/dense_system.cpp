#include "linalg/dense_system.hpp"

#include <algorithm>
#include <utility>

#include "linalg/blas.hpp"
#include "linalg/verify.hpp"
#include "nx/collectives.hpp"
#include "proc/kernel_model.hpp"

namespace hpccsim::linalg {

namespace {

using nx::Message;
using nx::NxContext;
using nx::Payload;
using proc::Kernel;
using sim::Task;

// User tags (collectives use their own space above 1<<20; distlu takes
// 200-363 for its row swaps).
constexpr int kTagScatter = 100;
constexpr int kTagScatterB = 101;
constexpr int kTagGatherX = 400;
// Substitution tags; +k%16 keeps adjacent steps distinct and the upper
// pass adds 256.
constexpr int kTagSolveFetch = 600;
constexpr int kTagSolveStore = 620;
constexpr int kTagSolveUpdate = 640;

}  // namespace

DenseSystem::DenseSystem(std::int64_t n, std::int64_t nb, ProcessGrid grid,
                         bool numeric_mode)
    : dist(n, nb, grid),
      numeric(numeric_mode),
      local(static_cast<std::size_t>(grid.size())),
      local_b(static_cast<std::size_t>(grid.size())) {}

Task<> distribute_system(NxContext& ctx, DenseSystem& sys,
                         std::uint64_t seed) {
  HPCCSIM_EXPECTS(sys.numeric);
  const BlockCyclic& dist = sys.dist;
  const ProcessGrid& grid = dist.grid();
  const int rank = ctx.rank();
  Matrix& A = sys.local[static_cast<std::size_t>(rank)];
  A = Matrix(dist.local_rows(grid.prow_of(rank)),
             dist.local_cols(grid.pcol_of(rank)));
  if (rank == 0) {
    Rng rng(seed);
    sys.a_full = Matrix::random(dist.n(), dist.n(), rng);
    sys.b = random_vector(dist.n(), rng);
    for (int r = 0; r < ctx.nodes(); ++r) {
      const std::int32_t rp = grid.prow_of(r);
      const std::int32_t rq = grid.pcol_of(r);
      const std::int64_t rl = dist.local_rows(rp);
      const std::int64_t rc = dist.local_cols(rq);
      std::vector<double> block(static_cast<std::size_t>(rl * rc));
      for (std::int64_t lc = 0; lc < rc; ++lc) {
        const std::int64_t gc = dist.global_col(rq, lc);
        for (std::int64_t lr = 0; lr < rl; ++lr)
          block[static_cast<std::size_t>(lc * rl + lr)] =
              sys.a_full(dist.global_row(rp, lr), gc);
      }
      if (r == 0) {
        std::copy(block.begin(), block.end(), A.data().begin());
      } else {
        // Byte count taken before the move (argument evaluation order).
        const Bytes blk_bytes = nx::doubles_bytes(block.size());
        co_await ctx.send(r, kTagScatter, blk_bytes,
                          nx::make_payload(std::move(block)));
      }
    }
    for (std::int32_t rp = 0; rp < grid.rows; ++rp) {
      const std::int64_t rl = dist.local_rows(rp);
      std::vector<double> seg(static_cast<std::size_t>(rl));
      for (std::int64_t lr = 0; lr < rl; ++lr)
        seg[static_cast<std::size_t>(lr)] =
            sys.b[static_cast<std::size_t>(dist.global_row(rp, lr))];
      const int dst = grid.rank_of(rp, 0);
      if (dst == 0) {
        sys.local_b[0] = std::move(seg);
      } else {
        const Bytes seg_bytes = nx::doubles_bytes(seg.size());
        co_await ctx.send(dst, kTagScatterB, seg_bytes,
                          nx::make_payload(std::move(seg)));
      }
    }
  } else {
    Message m = co_await ctx.recv(0, kTagScatter);
    const auto& vals = m.values();
    HPCCSIM_ASSERT(vals.size() == A.data().size());
    std::copy(vals.begin(), vals.end(), A.data().begin());
    if (grid.pcol_of(rank) == 0) {
      Message mb = co_await ctx.recv(0, kTagScatterB);
      sys.local_b[static_cast<std::size_t>(rank)] = mb.values();
    }
  }
}

// Right-looking block substitution. At step k the diagonal-block owner
// (pr_k, pc_k) solves its nb x nb triangle against the current slice of
// b (fetched from process column 0), the block solution is broadcast
// down process column pc_k, every process in that column forms its
// local matrix-vector update, and the updates land back on process
// column 0 where b lives. The unit-lower pass runs blocks 0..B-1; the
// upper pass runs B-1..0.
Task<> solve_triangle(NxContext& ctx, DenseSystem& sys, Triangle tri) {
  const BlockCyclic& dist = sys.dist;
  const ProcessGrid& grid = dist.grid();
  const std::int64_t n = dist.n();
  const std::int32_t P = grid.rows, Q = grid.cols;
  const int rank = ctx.rank();
  const std::int32_t prow = grid.prow_of(rank);
  const std::int32_t pcol = grid.pcol_of(rank);
  const std::int64_t lrows = dist.local_rows(prow);
  const bool forward = tri == Triangle::UnitLower;
  const nx::Group colg = process_col_group(grid, pcol);
  Matrix& A = sys.local[static_cast<std::size_t>(rank)];
  std::vector<double>& bloc = sys.local_b[static_cast<std::size_t>(rank)];

  const std::int64_t nblocks = dist.block_count();
  for (std::int64_t step = 0; step < nblocks; ++step) {
    const std::int64_t k = forward ? step : nblocks - 1 - step;
    const std::int64_t j0 = k * dist.nb();
    const std::int64_t jb = std::min<std::int64_t>(dist.nb(), n - j0);
    const auto pc = static_cast<std::int32_t>(k % Q);
    const auto pr = static_cast<std::int32_t>(k % P);
    const int tagf =
        kTagSolveFetch + static_cast<int>(k % 16) + (forward ? 0 : 256);
    const int tags =
        kTagSolveStore + static_cast<int>(k % 16) + (forward ? 0 : 256);
    const int tagu =
        kTagSolveUpdate + static_cast<int>(k % 16) + (forward ? 0 : 256);
    const std::int64_t lck0 = dist.first_local_col_at_or_after(pcol, j0);
    const std::int64_t lrk = dist.local_row(j0);  // valid on prow==pr

    // (a) fetch b_k from (pr, 0) to the diagonal-block owner.
    if (prow == pr && pcol == 0 && pc != 0) {
      Payload pay;
      if (sys.numeric) {
        std::vector<double> seg(bloc.begin() + lrk, bloc.begin() + lrk + jb);
        pay = nx::make_payload(std::move(seg));
      }
      co_await ctx.send(grid.rank_of(pr, pc), tagf,
                        nx::doubles_bytes(static_cast<std::size_t>(jb)), pay);
    }

    // (b) solve the diagonal block; (c) store y_k back on column 0,
    // shipped there unless the owner is on column 0 itself.
    Payload ypay;  // the block solution, produced on (pr, pc)
    if (prow == pr && pcol == pc) {
      std::vector<double> y;
      if (pc != 0) {
        Message m = co_await ctx.recv(grid.rank_of(pr, 0), tagf);
        if (sys.numeric) y = m.values();
      } else if (sys.numeric) {
        y.assign(bloc.begin() + lrk, bloc.begin() + lrk + jb);
      }
      if (sys.numeric) {
        if (forward)
          dtrsm_lower_unit(jb, 1, A.col(lck0) + lrk, lrows, y.data(), jb);
        else
          dtrsm_upper(jb, 1, A.col(lck0) + lrk, lrows, y.data(), jb);
      }
      co_await ctx.compute(Kernel::Trsm, jb, 1);
      if (sys.numeric) ypay = nx::make_payload(std::move(y));
      if (pc != 0)
        co_await ctx.send(grid.rank_of(pr, 0), tags,
                          nx::doubles_bytes(static_cast<std::size_t>(jb)),
                          ypay);
    }
    if (prow == pr && pcol == 0) {
      Message m;
      if (pc != 0) m = co_await ctx.recv(grid.rank_of(pr, pc), tags);
      if (sys.numeric) {
        const auto& y = pc == 0 ? *ypay : m.values();
        std::copy(y.begin(), y.end(), bloc.begin() + lrk);
      }
    }

    // (d) broadcast y_k down process column pc_k; (e) each member forms
    // its local update u = A[rows, block-k cols] * y_k and its row's
    // column-0 process applies it, shipped there unless pc_k is column 0.
    // The update touches the rows below the block (unit-lower pass) or
    // above it (upper pass).
    const std::int64_t lr_lo =
        forward ? dist.first_local_row_at_or_after(prow, j0 + jb) : 0;
    const std::int64_t lr_hi =
        forward ? lrows : dist.first_local_row_at_or_after(prow, j0);
    const std::int64_t m_upd = lr_hi - lr_lo;
    Payload upay;  // this process's update, formed on process column pc
    if (pcol == pc) {
      Message ym = co_await nx::bcast(
          ctx, colg, grid.rank_of(pr, pcol),
          nx::doubles_bytes(static_cast<std::size_t>(jb)), ypay);
      if (m_upd > 0) {
        if (sys.numeric) {
          const auto& y = ym.values();
          std::vector<double> u(static_cast<std::size_t>(m_upd), 0.0);
          for (std::int64_t c = 0; c < jb; ++c) {
            const double yc = y[static_cast<std::size_t>(c)];
            if (yc == 0.0) continue;
            const double* col = A.col(lck0 + c);
            for (std::int64_t i = 0; i < m_upd; ++i)
              u[static_cast<std::size_t>(i)] += col[lr_lo + i] * yc;
          }
          upay = nx::make_payload(std::move(u));
        }
        co_await ctx.compute(Kernel::Gemm, m_upd, 1, jb);
        if (pc != 0)
          co_await ctx.send(grid.rank_of(prow, 0), tagu,
                            nx::doubles_bytes(static_cast<std::size_t>(m_upd)),
                            upay);
      }
    }
    if (pcol == 0 && m_upd > 0) {
      Message m;
      if (pc != 0) m = co_await ctx.recv(grid.rank_of(prow, pc), tagu);
      if (sys.numeric) {
        const auto& u = pc == 0 ? *upay : m.values();
        for (std::int64_t i = 0; i < m_upd; ++i)
          bloc[static_cast<std::size_t>(lr_lo + i)] -=
              u[static_cast<std::size_t>(i)];
      }
      co_await ctx.compute(Kernel::Axpy, m_upd);
    }
  }
}

Task<> gather_solution(NxContext& ctx, DenseSystem& sys) {
  HPCCSIM_EXPECTS(sys.numeric);
  const BlockCyclic& dist = sys.dist;
  const ProcessGrid& grid = dist.grid();
  const int rank = ctx.rank();
  const std::vector<double>& bloc =
      sys.local_b[static_cast<std::size_t>(rank)];
  if (rank == 0) {
    std::vector<double> x(static_cast<std::size_t>(dist.n()));
    for (std::int32_t rp = 0; rp < grid.rows; ++rp) {
      const int src = grid.rank_of(rp, 0);
      Message m;
      if (src != 0) m = co_await ctx.recv(src, kTagGatherX);
      const std::vector<double>& seg = src == 0 ? bloc : m.values();
      const std::int64_t rl = dist.local_rows(rp);
      HPCCSIM_ASSERT(static_cast<std::int64_t>(seg.size()) == rl);
      for (std::int64_t lr = 0; lr < rl; ++lr)
        x[static_cast<std::size_t>(dist.global_row(rp, lr))] =
            seg[static_cast<std::size_t>(lr)];
    }
    sys.residual = scaled_residual(sys.a_full, x, sys.b);
  } else if (grid.pcol_of(rank) == 0) {
    const Bytes seg_bytes = nx::doubles_bytes(bloc.size());
    co_await ctx.send(0, kTagGatherX, seg_bytes, nx::make_payload(bloc));
  }
}

}  // namespace hpccsim::linalg
