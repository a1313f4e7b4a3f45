// Pooled allocator for coroutine frames.
//
// Every simulated process, every nested Task call, and every root
// wrapper allocates a coroutine frame; in a 528-node sweep that is
// millions of short-lived malloc/free pairs of a handful of distinct
// sizes. The arena recycles frames through size-class free lists carved
// from 64 KiB slabs, so steady-state frame churn never reaches the
// global allocator.
//
// Threading contract (see docs/MODEL.md): the arena is thread-local.
// An Engine and every coroutine it owns live and die on one thread, so
// frames are always freed on the thread that allocated them — which is
// what lets the free lists be lock-free-by-construction. One arena per
// sweep worker thread; slabs are released when the thread exits.
//
// Frames larger than kMaxBlock (deep generic lambdas) fall back to the
// global allocator, routed through the same header so deallocation
// needs no size.
#pragma once

#include <cstddef>

namespace hpccsim::sim::detail {

struct FrameArena {
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxBlock = 4096;
  static constexpr std::size_t kClasses = kMaxBlock / kGranule;
  static constexpr std::size_t kHeader = 16;  // keeps payload 16-aligned
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  static void* allocate(std::size_t bytes);
  static void deallocate(void* p) noexcept;
};

}  // namespace hpccsim::sim::detail
