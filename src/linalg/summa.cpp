#include "linalg/summa.hpp"

#include <algorithm>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/distlu.hpp"
#include "linalg/verify.hpp"
#include "nx/collectives.hpp"
#include "proc/kernel_model.hpp"

namespace hpccsim::linalg {

namespace {

using nx::Group;
using nx::Message;
using nx::NxContext;
using nx::Payload;
using proc::Kernel;
using sim::Task;

constexpr int kTagScatterA = 500;
constexpr int kTagScatterB = 501;
constexpr int kTagGatherC = 502;

struct SummaState {
  SummaConfig cfg;
  Matrix a, b, c_ref;       // rank-0 full matrices (numeric)
  std::optional<double> error;
  sim::Time t_start, t_end;
};

/// Block (not cyclic) distribution: process (p,q) owns the contiguous
/// row band p and column band q.
struct Band {
  std::int64_t lo, hi;  // [lo, hi)
  std::int64_t size() const { return hi - lo; }
};

Band band(std::int64_t n, std::int32_t i, std::int32_t parts) {
  const std::int64_t base = n / parts, extra = n % parts;
  const std::int64_t lo = i * base + std::min<std::int64_t>(i, extra);
  return Band{lo, lo + base + (i < extra ? 1 : 0)};
}

Task<> summa_node_program(NxContext& ctx, SummaState& st) {
  const SummaConfig& cfg = st.cfg;
  const std::int32_t P = cfg.grid.rows, Q = cfg.grid.cols;
  const int rank = ctx.rank();
  const std::int32_t prow = cfg.grid.prow_of(rank);
  const std::int32_t pcol = cfg.grid.pcol_of(rank);
  const Band rows = band(cfg.n, prow, P);
  const Band cols = band(cfg.n, pcol, Q);

  Group rowg = process_row_group(cfg.grid, prow);
  Group colg = process_col_group(cfg.grid, pcol);
  Group world = Group::world(ctx);

  Matrix Aloc, Bloc, Cloc(rows.size(), cols.size());

  // Setup (untimed): rank 0 scatters row/column bands.
  if (cfg.numeric) {
    Aloc = Matrix(rows.size(), cfg.n);
    Bloc = Matrix(cfg.n, cols.size());
    if (rank == 0) {
      Rng rng(cfg.seed);
      st.a = Matrix::random(cfg.n, cfg.n, rng);
      st.b = Matrix::random(cfg.n, cfg.n, rng);
      for (int r = 0; r < ctx.nodes(); ++r) {
        const Band rrows = band(cfg.n, cfg.grid.prow_of(r), P);
        const Band rcols = band(cfg.n, cfg.grid.pcol_of(r), Q);
        std::vector<double> pa(static_cast<std::size_t>(rrows.size() * cfg.n));
        std::vector<double> pb(static_cast<std::size_t>(cfg.n * rcols.size()));
        for (std::int64_t c = 0; c < cfg.n; ++c)
          for (std::int64_t r2 = 0; r2 < rrows.size(); ++r2)
            pa[static_cast<std::size_t>(c * rrows.size() + r2)] =
                st.a(rrows.lo + r2, c);
        for (std::int64_t c = 0; c < rcols.size(); ++c)
          for (std::int64_t r2 = 0; r2 < cfg.n; ++r2)
            pb[static_cast<std::size_t>(c * cfg.n + r2)] =
                st.b(r2, rcols.lo + c);
        if (r == 0) {
          std::copy(pa.begin(), pa.end(), Aloc.data().begin());
          std::copy(pb.begin(), pb.end(), Bloc.data().begin());
        } else {
          // Byte counts taken before the moves (argument evaluation
          // order would otherwise read size() of a moved-from vector).
          const Bytes pa_bytes = nx::doubles_bytes(pa.size());
          const Bytes pb_bytes = nx::doubles_bytes(pb.size());
          co_await ctx.send(r, kTagScatterA, pa_bytes,
                            nx::make_payload(std::move(pa)));
          co_await ctx.send(r, kTagScatterB, pb_bytes,
                            nx::make_payload(std::move(pb)));
        }
      }
    } else {
      Message ma = co_await ctx.recv(0, kTagScatterA);
      Message mb = co_await ctx.recv(0, kTagScatterB);
      std::copy(ma.values().begin(), ma.values().end(), Aloc.data().begin());
      std::copy(mb.values().begin(), mb.values().end(), Bloc.data().begin());
    }
  }
  co_await nx::barrier(ctx, world);
  if (rank == 0) st.t_start = ctx.now();

  // SUMMA steps over k panels.
  for (std::int64_t k0 = 0; k0 < cfg.n; k0 += cfg.kb) {
    const std::int64_t kw = std::min(cfg.kb, cfg.n - k0);
    // Who owns column band k0 of A / row band k0 of B?
    std::int32_t ka = Q - 1;
    while (band(cfg.n, ka, Q).lo > k0) --ka;
    std::int32_t kb_owner = P - 1;
    while (band(cfg.n, kb_owner, P).lo > k0) --kb_owner;

    // A panel: rows.size() x kw, broadcast along my process row.
    Payload pa;
    if (cfg.numeric && pcol == ka) {
      std::vector<double> v(static_cast<std::size_t>(rows.size() * kw));
      for (std::int64_t c = 0; c < kw; ++c)
        for (std::int64_t r = 0; r < rows.size(); ++r)
          v[static_cast<std::size_t>(c * rows.size() + r)] =
              Aloc(r, k0 + c);
      pa = nx::make_payload(std::move(v));
    }
    Message ma = co_await nx::bcast(
        ctx, rowg, cfg.grid.rank_of(prow, ka),
        nx::doubles_bytes(static_cast<std::size_t>(rows.size() * kw)), pa);

    // B panel: kw x cols.size(), broadcast along my process column.
    Payload pb;
    if (cfg.numeric && prow == kb_owner) {
      std::vector<double> v(static_cast<std::size_t>(kw * cols.size()));
      for (std::int64_t c = 0; c < cols.size(); ++c)
        for (std::int64_t r = 0; r < kw; ++r)
          v[static_cast<std::size_t>(c * kw + r)] = Bloc(k0 + r, c);
      pb = nx::make_payload(std::move(v));
    }
    Message mb = co_await nx::bcast(
        ctx, colg, cfg.grid.rank_of(kb_owner, pcol),
        nx::doubles_bytes(static_cast<std::size_t>(kw * cols.size())), pb);

    if (cfg.numeric) {
      // C -= (-A_panel) * B_panel, i.e. accumulate the product.
      std::vector<double> nega = ma.values();
      for (double& x : nega) x = -x;
      dgemm_minus(rows.size(), cols.size(), kw, nega.data(), rows.size(),
                  mb.values().data(), kw, Cloc.data().data(), rows.size());
    }
    co_await ctx.compute(Kernel::Gemm, rows.size(), cols.size(), kw);
  }

  co_await nx::barrier(ctx, world);
  if (rank == 0) st.t_end = ctx.now();

  // Verification (untimed): gather C and compare with a local product.
  if (cfg.numeric) {
    if (rank == 0) {
      Matrix c(cfg.n, cfg.n);
      for (std::int64_t lc = 0; lc < cols.size(); ++lc)
        for (std::int64_t lr = 0; lr < rows.size(); ++lr)
          c(rows.lo + lr, cols.lo + lc) = Cloc(lr, lc);
      for (int r = 1; r < ctx.nodes(); ++r) {
        Message m = co_await ctx.recv(r, kTagGatherC);
        const Band rrows = band(cfg.n, cfg.grid.prow_of(r), P);
        const Band rcols = band(cfg.n, cfg.grid.pcol_of(r), Q);
        const auto& v = m.values();
        for (std::int64_t lc = 0; lc < rcols.size(); ++lc)
          for (std::int64_t lr = 0; lr < rrows.size(); ++lr)
            c(rrows.lo + lr, rcols.lo + lc) =
                v[static_cast<std::size_t>(lc * rrows.size() + lr)];
      }
      st.c_ref = matmul(st.a, st.b);
      st.error = relative_diff(c, st.c_ref);
    } else {
      std::vector<double> v(Cloc.data().begin(), Cloc.data().end());
      const Bytes v_bytes = nx::doubles_bytes(v.size());
      co_await ctx.send(0, kTagGatherC, v_bytes,
                        nx::make_payload(std::move(v)));
    }
  }
}

}  // namespace

SummaResult run_summa(nx::NxMachine& machine, const SummaConfig& cfg) {
  HPCCSIM_EXPECTS(cfg.grid.size() == machine.nodes());
  SummaState st{cfg, {}, {}, {}, {}, {}, {}};

  const auto before = machine.total_stats();
  machine.run(
      [&st](nx::NxContext& ctx) { return summa_node_program(ctx, st); });
  const auto after = machine.total_stats();

  SummaResult res;
  res.elapsed = st.t_end - st.t_start;
  const double n3 = static_cast<double>(cfg.n);
  res.gflops = 2.0 * n3 * n3 * n3 / res.elapsed.as_sec() / 1e9;
  res.error = st.error;
  res.messages = after.sends - before.sends;
  res.bytes_moved = after.bytes_sent - before.bytes_sent;
  return res;
}

}  // namespace hpccsim::linalg
