#include "linalg/distlu.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/dense_system.hpp"
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

// User-tag bases (collectives use their own space above 1<<20; the
// dense system's distribution, solve and gather take 100-101, 400 and
// 600-911).
constexpr int kTagPanelSwap = 200;
constexpr int kTagTrailSwap = 300;

/// Everything the node programs share. Lives on the host stack for the
/// duration of the run; the simulation is single-threaded, so plain
/// members are safe.
struct LuState {
  LuConfig cfg;
  DenseSystem sys;

  // Timing (recorded by rank 0 inside the program).
  Time t_start;
  Time t_end;

  explicit LuState(const LuConfig& c)
      : cfg(c), sys(c.n, c.nb, c.grid, c.mode == ExecMode::Numeric) {}
};

/// Pack a row segment (given local columns) of a local matrix.
std::vector<double> pack_row(const Matrix& m, std::int64_t lrow,
                             const std::vector<std::int64_t>& lcols) {
  std::vector<double> out;
  out.reserve(lcols.size());
  for (const std::int64_t lc : lcols) out.push_back(m(lrow, lc));
  return out;
}

void unpack_row(Matrix& m, std::int64_t lrow,
                const std::vector<std::int64_t>& lcols,
                const std::vector<double>& vals) {
  HPCCSIM_EXPECTS(vals.size() == lcols.size());
  for (std::size_t i = 0; i < lcols.size(); ++i)
    m(lrow, lcols[i]) = vals[i];
}

/// The SPMD node program.
Task<> lu_node_program(NxContext& ctx, LuState& st) {
  const LuConfig& cfg = st.cfg;
  const BlockCyclic& dist = st.sys.dist;
  const bool numeric = st.sys.numeric;
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

  // ------------------------------------------------ setup (untimed) --
  if (numeric) co_await distribute_system(ctx, st.sys, cfg.seed);
  // This node's local A and slice of b (both empty in modeled mode; b
  // also off process column 0).
  Matrix& A = st.sys.local[static_cast<std::size_t>(rank)];
  std::vector<double>& bloc = st.sys.local_b[static_cast<std::size_t>(rank)];
  co_await nx::barrier(ctx, world);
  if (rank == 0) {
    st.t_start = ctx.now();
    ctx.skeleton_mark(0);
  }

  // ------------------------------------------------- factorization --
  const std::int64_t nblocks = dist.block_count();
  // Per-panel scratch, hoisted out of the k loop so steady-state panels
  // reuse capacity instead of re-allocating (docs/PERF.md).
  std::vector<std::int64_t> piv_this_panel;  // global pivot rows
  std::vector<std::int64_t> panel_cols;      // local panel column indices
  std::vector<std::int64_t> out_cols;        // local non-panel columns
  for (std::int64_t k = 0; k < nblocks; ++k) {
    const std::int64_t j0 = k * cfg.nb;
    const std::int64_t jb = std::min<std::int64_t>(cfg.nb, n - j0);
    const auto pc = static_cast<std::int32_t>(k % Q);  // panel proc col
    const auto pr = static_cast<std::int32_t>(k % P);  // diag proc row

    // Local panel geometry.
    const std::int64_t panel_lc0 = dist.first_local_col_at_or_after(pcol, j0);
    piv_this_panel.clear();

    // ---- 1. panel factorization (process column pc only) ----
    if (pcol == pc) {
      panel_cols.clear();
      for (std::int64_t c = 0; c < jb; ++c)
        panel_cols.push_back(panel_lc0 + c);
      for (std::int64_t j = j0; j < j0 + jb; ++j) {
        const std::int64_t lj = panel_lc0 + (j - j0);  // local col of j
        const std::int64_t lr0 = dist.first_local_row_at_or_after(prow, j);
        const std::int64_t mloc = lrows - lr0;

        // Local pivot candidate.
        Payload cand;
        if (numeric) {
          double bv = 0.0;
          std::int64_t bg = n;  // sentinel: "no rows here"
          if (mloc > 0) {
            const std::int64_t li = lr0 + idamax(mloc, A.col(lj) + lr0);
            bv = A(li, lj);
            bg = dist.global_row(prow, li);
          }
          cand = nx::make_payload({bv, static_cast<double>(bg)});
        }
        if (mloc > 0) co_await ctx.compute(Kernel::Dot, mloc);
        Message red = co_await nx::allreduce(ctx, colg, ReduceOp::MaxAbsLoc,
                                             nx::doubles_bytes(2), cand);

        // Pivot decision. Modeled mode: a deterministic stand-in that is
        // computable by every process column. A real pivot row lands on
        // a remote process row with probability (P-1)/P; the stand-in
        // reproduces that fraction by keeping every P-th column's pivot
        // local (no exchange) and sending the rest one block row down.
        std::int64_t piv_row =
            (j % P == 0) ? j : std::min(j + cfg.nb, n - 1);
        if (numeric) {
          const auto& v = red.values();
          HPCCSIM_ASSERT(v.size() == 2);
          if (v[0] == 0.0)
            throw std::domain_error("distributed LU: singular matrix");
          piv_row = static_cast<std::int64_t>(v[1]);
        }
        piv_this_panel.push_back(piv_row);

        // Swap rows j and piv_row within the panel columns. Row j is in
        // block k, so it lives on process row pr.
        const std::int32_t oj = pr;
        const std::int32_t op = dist.owner_prow(piv_row);
        if (piv_row != j) {
          if (oj == op) {
            if (prow == oj) {
              if (numeric)
                drowswap(jb, A.col(panel_lc0), lrows, dist.local_row(j),
                         dist.local_row(piv_row));
              co_await ctx.compute(Kernel::Swap, jb);
            }
          } else if (prow == oj || prow == op) {
            const std::int64_t my_row =
                prow == oj ? dist.local_row(j) : dist.local_row(piv_row);
            const int partner = cfg.grid.rank_of(prow == oj ? op : oj, pcol);
            std::vector<double> mine;
            Payload pay;
            if (numeric) {
              mine = pack_row(A, my_row, panel_cols);
              pay = nx::make_payload(mine);
            }
            const int tag = kTagPanelSwap + static_cast<int>(j % 64);
            co_await ctx.send(partner, tag, nx::doubles_bytes(
                                                static_cast<std::size_t>(jb)),
                              pay);
            Message got = co_await ctx.recv(partner, tag);
            if (numeric) unpack_row(A, my_row, panel_cols, got.values());
            co_await ctx.compute(Kernel::Swap, jb);
          }
        }

        // Broadcast the pivot row's panel segment (from the diagonal to
        // the panel edge) down the process column.
        const std::int64_t seg = jb - (j - j0);
        Payload rowseg;
        if (numeric && prow == oj) {
          std::vector<double> vals(static_cast<std::size_t>(seg));
          const std::int64_t lr = dist.local_row(j);
          for (std::int64_t c = 0; c < seg; ++c)
            vals[static_cast<std::size_t>(c)] = A(lr, lj + c);
          rowseg = nx::make_payload(std::move(vals));
        }
        Message prow_msg =
            co_await nx::bcast(ctx, colg, cfg.grid.rank_of(oj, pcol),
                               nx::doubles_bytes(static_cast<std::size_t>(seg)),
                               rowseg);

        // Scale the multipliers and rank-1 update the rest of the panel.
        const std::int64_t lr1 = dist.first_local_row_at_or_after(prow, j + 1);
        const std::int64_t below = lrows - lr1;
        if (below > 0) {
          if (numeric) {
            const auto& rv = prow_msg.values();
            const double diag = rv[0];
            HPCCSIM_ASSERT(diag != 0.0);
            dscal(below, 1.0 / diag, A.col(lj) + lr1);
            for (std::int64_t c = 1; c < seg; ++c)
              daxpy(below, -rv[static_cast<std::size_t>(c)],
                    A.col(lj) + lr1, A.col(lj + c) + lr1);
          }
          co_await ctx.compute(Kernel::Scal, below);
          if (seg > 1)
            co_await ctx.compute(Kernel::Axpy, below * (seg - 1));
        }
      }
    }

    // ---- 2. pivot sequence along process rows ----
    // Modeled mode sends no payload: receivers recompute the
    // deterministic stand-in pivots locally.
    Payload pivpay;
    if (pcol == pc && numeric) {
      std::vector<double> pv;
      pv.reserve(piv_this_panel.size());
      for (const std::int64_t p : piv_this_panel)
        pv.push_back(static_cast<double>(p));
      pivpay = nx::make_payload(std::move(pv));
    }
    Message pivmsg = co_await nx::bcast(
        ctx, rowg, cfg.grid.rank_of(prow, pc),
        nx::doubles_bytes(static_cast<std::size_t>(jb)), pivpay);
    if (pcol != pc) {
      piv_this_panel.clear();
      if (numeric) {
        for (const double v : pivmsg.values())
          piv_this_panel.push_back(static_cast<std::int64_t>(v));
      } else {
        // Same deterministic stand-in rule as the panel column used.
        for (std::int64_t j = j0; j < j0 + jb; ++j)
          piv_this_panel.push_back(
              (j % P == 0) ? j : std::min(j + cfg.nb, n - 1));
      }
    }

    // ---- 3. apply row swaps to non-panel local columns ----
    {
      // Columns outside the panel: all local ones but, on the panel's
      // process column, the jb from panel_lc0 on. Only numeric mode
      // moves values, so only it lists their local indices.
      const std::int64_t panel_w = pcol == pc ? jb : 0;
      const std::int64_t out_count = lcols - panel_w;
      if (numeric) {
        out_cols.clear();
        for (std::int64_t lc = 0; lc < lcols; ++lc)
          if (lc < panel_lc0 || lc >= panel_lc0 + panel_w)
            out_cols.push_back(lc);
      }
      // Process column 0 also carries the right-hand side, whose rows
      // must follow the same pivot swaps (HPL treats b as an extra
      // column of the matrix); its value rides along in the exchange.
      const bool has_b = pcol == 0;
      if (out_count > 0 || has_b) {
        const std::int64_t swap_width = out_count + (has_b ? 1 : 0);
        for (std::int64_t idx = 0;
             idx < static_cast<std::int64_t>(piv_this_panel.size()); ++idx) {
          const std::int64_t j = j0 + idx;
          const std::int64_t p = piv_this_panel[static_cast<std::size_t>(idx)];
          if (p == j) continue;
          const std::int32_t oj = pr;  // row j is in block k
          const std::int32_t op = dist.owner_prow(p);
          if (oj == op) {
            if (prow == oj) {
              if (numeric) {
                for (const std::int64_t lc : out_cols)
                  std::swap(A(dist.local_row(j), lc), A(dist.local_row(p), lc));
                if (has_b)
                  std::swap(bloc[static_cast<std::size_t>(dist.local_row(j))],
                            bloc[static_cast<std::size_t>(dist.local_row(p))]);
              }
              co_await ctx.compute(Kernel::Swap, swap_width);
            }
          } else if (prow == oj || prow == op) {
            const std::int64_t my_row =
                prow == oj ? dist.local_row(j) : dist.local_row(p);
            const int partner = cfg.grid.rank_of(prow == oj ? op : oj, pcol);
            Payload pay;
            if (numeric) {
              std::vector<double> mine = pack_row(A, my_row, out_cols);
              if (has_b)
                mine.push_back(bloc[static_cast<std::size_t>(my_row)]);
              pay = nx::make_payload(std::move(mine));
            }
            const int tag = kTagTrailSwap + static_cast<int>(j % 64);
            co_await ctx.send(
                partner, tag,
                nx::doubles_bytes(static_cast<std::size_t>(swap_width)), pay);
            Message got = co_await ctx.recv(partner, tag);
            if (numeric) {
              const auto& vals = got.values();
              HPCCSIM_ASSERT(static_cast<std::int64_t>(vals.size()) ==
                             swap_width);
              for (std::size_t i = 0; i < out_cols.size(); ++i)
                A(my_row, out_cols[i]) = vals[i];
              if (has_b)
                bloc[static_cast<std::size_t>(my_row)] = vals.back();
            }
            co_await ctx.compute(Kernel::Swap, swap_width);
          }
        }
      }
    }

    // ---- 4. broadcast the L panel along process rows ----
    const std::int64_t plr0 = dist.first_local_row_at_or_after(prow, j0);
    const std::int64_t pm = lrows - plr0;  // local panel rows (incl. L11 part)
    Payload lpanel;
    if (numeric && pcol == pc && pm > 0) {
      std::vector<double> vals(static_cast<std::size_t>(pm * jb));
      for (std::int64_t c = 0; c < jb; ++c)
        for (std::int64_t r = 0; r < pm; ++r)
          vals[static_cast<std::size_t>(c * pm + r)] =
              A(plr0 + r, panel_lc0 + c);
      lpanel = nx::make_payload(std::move(vals));
    }
    Message lmsg = co_await nx::bcast(
        ctx, rowg, cfg.grid.rank_of(prow, pc),
        nx::doubles_bytes(static_cast<std::size_t>(std::max<std::int64_t>(
            pm * jb, 0))),
        lpanel);
    // Local copy of the L panel this process will multiply with.
    const std::vector<double>* lvals =
        numeric ? &lmsg.values() : nullptr;

    // ---- 5. U block: trsm on the diagonal process row, bcast down ----
    const std::int64_t tlc0 = dist.first_local_col_at_or_after(pcol, j0 + jb);
    const std::int64_t tn = lcols - tlc0;  // local trailing cols
    Payload ublock;
    if (prow == pr && tn > 0) {
      if (numeric) {
        // L11 sits at the top of the received panel (rows of block k are
        // contiguous on the diagonal process row).
        HPCCSIM_ASSERT(lvals && static_cast<std::int64_t>(lvals->size()) >=
                                    jb * jb);
        std::vector<double> u(static_cast<std::size_t>(jb * tn));
        const std::int64_t l11_row0 = dist.local_row(j0) - plr0;
        for (std::int64_t c = 0; c < tn; ++c)
          for (std::int64_t r = 0; r < jb; ++r)
            u[static_cast<std::size_t>(c * jb + r)] =
                A(dist.local_row(j0) + r, tlc0 + c);
        // Forward substitution with unit-lower L11.
        std::vector<double> l11(static_cast<std::size_t>(jb * jb));
        for (std::int64_t c = 0; c < jb; ++c)
          for (std::int64_t r = 0; r < jb; ++r)
            l11[static_cast<std::size_t>(c * jb + r)] =
                (*lvals)[static_cast<std::size_t>(c * pm + l11_row0 + r)];
        dtrsm_lower_unit(jb, tn, l11.data(), jb, u.data(), jb);
        // Write U12 back into the local trailing block row.
        for (std::int64_t c = 0; c < tn; ++c)
          for (std::int64_t r = 0; r < jb; ++r)
            A(dist.local_row(j0) + r, tlc0 + c) =
                u[static_cast<std::size_t>(c * jb + r)];
        ublock = nx::make_payload(std::move(u));
      }
      co_await ctx.compute(Kernel::Trsm, jb, tn);
    }
    Message umsg = co_await nx::bcast(
        ctx, colg, cfg.grid.rank_of(pr, pcol),
        nx::doubles_bytes(static_cast<std::size_t>(
            std::max<std::int64_t>(jb * tn, 0))),
        ublock);

    // ---- 6. trailing update ----
    const std::int64_t ulr0 = dist.first_local_row_at_or_after(prow, j0 + jb);
    const std::int64_t tm = lrows - ulr0;  // local trailing rows
    if (tm > 0 && tn > 0) {
      if (numeric) {
        const auto& uv = umsg.values();
        HPCCSIM_ASSERT(static_cast<std::int64_t>(uv.size()) == jb * tn);
        // L21 rows of the received panel: those below j0+jb globally.
        const std::int64_t l21_off = ulr0 - plr0;
        HPCCSIM_ASSERT(lvals && static_cast<std::int64_t>(lvals->size()) ==
                                    pm * jb);
        dgemm_minus(tm, tn, jb, lvals->data() + l21_off, pm, uv.data(), jb,
                    A.col(tlc0) + ulr0, lrows);
      }
      co_await ctx.compute(Kernel::Gemm, tm, tn, jb);
    }
  }

  // --------------------------- distributed triangular solve (timed) --
  //
  // Pivot swaps were already applied to b during factorization (the b
  // entries ride along in the trailing row exchanges), so L y = b~ and
  // U x = y complete the LINPACK solve.
  co_await solve_triangle(ctx, st.sys, Triangle::UnitLower);
  co_await solve_triangle(ctx, st.sys, Triangle::Upper);

  co_await nx::barrier(ctx, world);
  if (rank == 0) {
    st.t_end = ctx.now();
    ctx.skeleton_mark(1);
  }

  // --------------------------------- verification (numeric, untimed) --
  if (numeric) co_await gather_solution(ctx, st.sys);
}

// ------------------------------------------ skeleton derive / replay --

/// Clock instants the replayer extracts from MarkTime ops (rank 0's
/// t_start / t_end). Shared by every rank's replay coroutine.
struct ReplayShared {
  Time marks[2];
};

/// Replays one rank's recorded op stream: a flat loop that re-issues
/// the identical ctx-level primitives in the identical order, so the
/// engine processes the identical (time, seq) event stream as the
/// derived run — no coroutine tree, no per-panel control flow.
Task<> replay_rank(NxContext& ctx, const std::vector<nx::SkelOp>& ops,
                   ReplayShared& sh) {
  struct CollFrame {
    nx::CollectiveKind kind;
    Time start;
  };
  // Collectives nest at most barrier > allreduce > reduce/bcast deep.
  std::array<CollFrame, 8> coll{};
  std::size_t depth = 0;
  for (const nx::SkelOp& op : ops) {
    switch (op.kind) {
      case nx::SkelOp::Send:
        co_await ctx.send(static_cast<int>(op.a), static_cast<int>(op.b),
                          op.c);
        break;
      case nx::SkelOp::Recv: {
        Message m =
            co_await ctx.recv(static_cast<int>(op.b) - 1,
                              static_cast<int>(op.c));
        (void)m;
        break;
      }
      case nx::SkelOp::Compute:
        co_await ctx.compute(
            static_cast<Kernel>(op.aux),
            static_cast<std::int64_t>(op.c >> 32),
            static_cast<std::int64_t>(op.c & 0xffffffffull),
            static_cast<std::int64_t>(op.b));
        break;
      case nx::SkelOp::Busy:
        co_await ctx.busy(Time::ps(static_cast<std::int64_t>(op.c)));
        break;
      case nx::SkelOp::CollBegin:
        HPCCSIM_EXPECTS(depth < coll.size());
        coll[depth++] =
            CollFrame{static_cast<nx::CollectiveKind>(op.aux), ctx.now()};
        break;
      case nx::SkelOp::CollEnd: {
        HPCCSIM_EXPECTS(depth > 0);
        const CollFrame f = coll[--depth];
        const Time end = ctx.now();
        // Context-routed so parallel replay records into the band's
        // private registry (see NxContext::collective_histogram).
        ctx.collective_histogram(f.kind).record(
            static_cast<std::int64_t>((end - f.start).as_ns()));
        if (obs::TraceWriter* tw = ctx.machine().trace_writer())
          tw->complete(ctx.rank(), nx::collective_name(f.kind),
                       "collective", f.start, end);
        break;
      }
      case nx::SkelOp::MarkTime:
        HPCCSIM_EXPECTS(op.aux < 2);
        sh.marks[op.aux] = ctx.now();
        break;
    }
  }
}

LuResult make_lu_result(const LuConfig& cfg, Time t0, Time t1,
                        const nx::NodeStats& before,
                        const nx::NodeStats& after) {
  LuResult res;
  res.elapsed = t1 - t0;
  res.gflops = lu_solve_flops(static_cast<double>(cfg.n)) /
               res.elapsed.as_sec() / 1e9;
  res.messages = after.sends - before.sends;
  res.bytes_moved = after.bytes_sent - before.bytes_sent;
  res.flops_charged = after.flops_charged - before.flops_charged;
  res.compute_time = after.compute_time - before.compute_time;
  return res;
}

/// Detaches recorders even when the run throws (recorders are caller
/// stack locals; a dangling pointer would outlive them).
struct RecorderGuard {
  nx::NxMachine* m;
  ~RecorderGuard() {
    for (int r = 0; r < m->nodes(); ++r)
      m->context(r).set_skeleton_recorder(nullptr);
  }
};

/// The derived (coroutine) run, optionally recording per-rank ops.
LuResult run_lu_program(nx::NxMachine& machine, const LuConfig& cfg,
                        std::vector<nx::SkeletonRecorder>* recs) {
  LuState st(cfg);

  const auto before = machine.total_stats();
  {
    RecorderGuard guard{&machine};
    machine.run([&st, recs](nx::NxContext& ctx) {
      if (recs)
        ctx.set_skeleton_recorder(
            &(*recs)[static_cast<std::size_t>(ctx.rank())]);
      return lu_node_program(ctx, st);
    });
  }

  const auto after = machine.total_stats();
  LuResult res = make_lu_result(cfg, st.t_start, st.t_end, before, after);
  res.residual = st.sys.residual;
  return res;
}

}  // namespace

LuConfig lu_config_for(const nx::NxMachine& machine, std::int64_t n,
                       std::int64_t nb, ExecMode mode) {
  LuConfig cfg;
  cfg.n = n;
  cfg.nb = nb;
  cfg.mode = mode;
  cfg.grid = ProcessGrid{machine.config().mesh_height,
                         machine.config().mesh_width};
  return cfg;
}

LuResult run_distributed_lu(nx::NxMachine& machine, const LuConfig& cfg) {
  HPCCSIM_EXPECTS(cfg.grid.size() == machine.nodes());
  HPCCSIM_EXPECTS(cfg.n >= 1 && cfg.nb >= 1);

  return run_lu_program(machine, cfg, nullptr);
}

std::size_t LuSkeleton::total_ops() const {
  std::size_t total = 0;
  for (const auto& ops : per_rank) total += ops.size();
  return total;
}

std::shared_ptr<const LuSkeleton> derive_lu_skeleton(nx::NxMachine& machine,
                                                     const LuConfig& cfg,
                                                     LuResult* result) {
  HPCCSIM_EXPECTS(cfg.grid.size() == machine.nodes());
  HPCCSIM_EXPECTS(cfg.mode == ExecMode::Modeled);
  std::vector<nx::SkeletonRecorder> recs(
      static_cast<std::size_t>(machine.nodes()));
  LuResult res = run_lu_program(machine, cfg, &recs);
  if (result) *result = res;
  for (const auto& r : recs)
    if (!r.valid) return nullptr;
  auto skel = std::make_shared<LuSkeleton>();
  skel->n = cfg.n;
  skel->nb = cfg.nb;
  skel->rows = cfg.grid.rows;
  skel->cols = cfg.grid.cols;
  skel->per_rank.reserve(recs.size());
  for (auto& r : recs) skel->per_rank.push_back(std::move(r.ops));
  return skel;
}

LuResult replay_lu_skeleton(nx::NxMachine& machine, const LuConfig& cfg,
                            const LuSkeleton& skel) {
  HPCCSIM_EXPECTS(cfg.grid.size() == machine.nodes());
  HPCCSIM_EXPECTS(skel.n == cfg.n && skel.nb == cfg.nb);
  HPCCSIM_EXPECTS(skel.rows == cfg.grid.rows && skel.cols == cfg.grid.cols);
  HPCCSIM_EXPECTS(static_cast<int>(skel.per_rank.size()) == machine.nodes());

  ReplayShared sh;
  const auto before = machine.total_stats();
  machine.run([&skel, &sh](nx::NxContext& ctx) {
    return replay_rank(
        ctx, skel.per_rank[static_cast<std::size_t>(ctx.rank())], sh);
  });
  const auto after = machine.total_stats();

  machine.counters().counter("lu.skeleton.replays").add(1);
  machine.counters()
      .counter("lu.skeleton.replayed_ops")
      .add(static_cast<std::int64_t>(skel.total_ops()));

  return make_lu_result(cfg, sh.marks[0], sh.marks[1], before, after);
}

}  // namespace hpccsim::linalg
