// Communication-skeleton recording: a compact POD event stream of the
// ctx-level primitives a node program issued, replayable without
// re-deriving the coroutine program (docs/MODEL.md §13).
//
// Recording is attached per NxContext (set_skeleton_recorder) and is
// observation-only: a derived run behaves byte-identically whether or
// not a recorder is attached. Replay re-issues the identical primitives
// in the identical per-rank order, so the engine sees the identical
// (time, seq) event stream.
#pragma once

#include <cstdint>
#include <vector>

namespace hpccsim::nx {

/// Latency-histogram / trace identity of a collective call, shared by
/// the live CollectiveTimer (collectives.cpp) and skeleton replay.
enum class CollectiveKind : std::uint8_t {
  Barrier,
  AbortableBarrier,
  Bcast,
  Reduce,
  Allreduce,
  Gather,
  Alltoall,
  Allgather,
};
inline constexpr int kCollectiveKindCount = 8;
const char* collective_name(CollectiveKind k);

/// One replayable operation. 16 bytes so a full-Delta n=25,000 LU
/// schedule (~14M ops) stays around 220 MB while cached.
struct SkelOp {
  enum Kind : std::uint8_t {
    Send,       ///< a=dst, b=tag, c=bytes
    Recv,       ///< b=src+1 (0 encodes kAnySource), c=tag
    Compute,    ///< aux=proc::Kernel, b=p, c=(m<<32)|n
    Busy,       ///< c=picoseconds
    CollBegin,  ///< aux=CollectiveKind
    CollEnd,    ///< aux=CollectiveKind
    MarkTime,   ///< aux=mark id (distlu: 0=t_start, 1=t_end)
  };
  std::uint8_t kind = 0;
  std::uint8_t aux = 0;
  std::uint16_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
};
static_assert(sizeof(SkelOp) == 16);

/// Accumulates one rank's op stream while a program derives it. A
/// schedule that cannot be represented (field overflow, or an op the
/// replayer does not model: recv_abortable, a kAnyTag receive) marks
/// itself invalid and is discarded by the caller.
struct SkeletonRecorder {
  std::vector<SkelOp> ops;
  bool valid = true;
  void invalidate() { valid = false; }
};

}  // namespace hpccsim::nx
