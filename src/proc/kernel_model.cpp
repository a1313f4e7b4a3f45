#include "proc/kernel_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hpccsim::proc {

Flops kernel_flops(Kernel k, std::int64_t m, std::int64_t n,
                   std::int64_t p) {
  HPCCSIM_EXPECTS(m >= 0 && n >= 0 && p >= 0);
  const auto M = static_cast<Flops>(m);
  const auto N = static_cast<Flops>(n);
  const auto P = static_cast<Flops>(p);
  switch (k) {
    case Kernel::Gemm: return 2 * M * N * P;
    case Kernel::Trsm: return M * M * N;  // m x m triangle, n RHS
    case Kernel::Getf2:
      // LU of an m x n panel (m >= n): sum of rank-1 updates,
      // ~ m*n^2 - n^3/3 multiply-adds, doubled for +/*.
      return N * N * (3 * M - N) / 3 * 2 / 2;  // == n^2(3m-n)/3
    case Kernel::Axpy: return 2 * M;
    case Kernel::Dot: return 2 * M;
    case Kernel::Scal: return M;
    case Kernel::Swap: return 0;
    case Kernel::Copy: return 0;
    case Kernel::Stencil: return 5 * M * N;  // 4 adds + 1 mul per point
    case Kernel::Fft: {
      // Complex radix-2: 5 m log2(m); n counts how many transforms.
      Flops lg = 0;
      for (Flops v = M; v > 1; v >>= 1) ++lg;
      return 5 * M * lg * std::max<Flops>(N, 1);
    }
  }
  return 0;
}

sim::Time NodeModel::time_for(Kernel k, std::int64_t m, std::int64_t n,
                              std::int64_t p) const {
  const Flops f = kernel_flops(k, m, n, p);
  double rate = peak.flops_per_sec();
  switch (k) {
    case Kernel::Gemm: rate *= gemm_efficiency; break;
    case Kernel::Trsm: rate *= trsm_efficiency; break;
    case Kernel::Getf2: rate *= panel_efficiency; break;
    case Kernel::Axpy:
    case Kernel::Dot:
    case Kernel::Scal:
    case Kernel::Stencil:
    case Kernel::Fft: rate *= vector_efficiency; break;
    case Kernel::Swap:
    case Kernel::Copy: {
      // Pure memory traffic: 16 bytes moved per element (read+write).
      const double bytes = 16.0 * static_cast<double>(m);
      return kernel_startup +
             sim::Time::sec(bytes / memory_bw_bytes_per_sec);
    }
  }
  return kernel_startup + sim::Time::sec(static_cast<double>(f) / rate);
}

FlopsPerSecond NodeModel::sustained(Kernel k, std::int64_t m, std::int64_t n,
                                    std::int64_t p) const {
  const Flops f = kernel_flops(k, m, n, p);
  const sim::Time t = time_for(k, m, n, p);
  if (t == sim::Time::zero()) return FlopsPerSecond{0};
  return FlopsPerSecond{static_cast<double>(f) / t.as_sec()};
}

}  // namespace hpccsim::proc
