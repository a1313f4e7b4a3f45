// Collective operations over groups of simulated nodes.
//
// These mirror the collective layer every Delta application carried on
// top of NX point-to-point (and that MPI later standardized): barrier,
// broadcast, reduce, allreduce, gather, alltoall, allgather.
//
// SPMD discipline: every member of a group must invoke the same
// collectives in the same order (matching is by a per-group sequence
// number folded into the tag). This is the same contract MPI imposes.
//
// Algorithms are selectable so bench/ablate_collectives can compare them:
//   - Binomial: log2(P) tree. Default; bit-reproducible reductions
//     (fixed combine order at every node).
//   - Ring: P-1 step pipeline. Bandwidth-friendly for large payloads.
//   - RecursiveDoubling: log2(P) exchange steps for allreduce; note the
//     combine order differs per node, so floating-point results can
//     differ in the last ulp between nodes (documented MPI reality).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/task.hpp"
#include "nx/context.hpp"
#include "nx/message.hpp"
#include "util/assert.hpp"

namespace hpccsim::nx {

/// A communication group: the ranks first, first + stride, ...,
/// first + (size - 1) * stride, in that order, plus a tag space. Every
/// group here is such a progression: the world (0, 1, P), a process-grid
/// row (prow * Q, 1, Q) and a process-grid column (pcol, Q, P). All
/// members construct the group with the identical progression and
/// tag_space. Trivially copyable, 16 bytes; every lookup is O(1).
class Group {
 public:
  Group(int first, int stride, int size, int tag_space);

  /// The whole machine, tag space 0.
  static Group world(const NxContext& ctx);

  int size() const { return size_; }
  int rank_at(int index) const {
    HPCCSIM_EXPECTS(index >= 0 && index < size_);
    return first_ + stride_ * index;
  }
  int index_of(int global_rank) const {
    HPCCSIM_EXPECTS(contains(global_rank));
    return (global_rank - first_) / stride_;
  }
  bool contains(int global_rank) const {
    const std::int64_t off = std::int64_t{global_rank} - first_;
    return off >= 0 && off % stride_ == 0 && off / stride_ < size_;
  }
  int tag_space() const { return tag_space_; }

 private:
  int first_;
  int stride_;
  int size_;
  int tag_space_;
};

enum class ReduceOp {
  Sum,
  Max,
  Min,
  /// Payload is [value, index] pairs; keeps the element with the largest
  /// |value| (ties -> smaller index). The LU pivot-search primitive.
  MaxAbsLoc,
};

enum class CollectiveAlgo { Binomial, Ring, RecursiveDoubling, Flat };

/// All members wait until every member has entered.
sim::Task<> barrier(NxContext& ctx, const Group& g);

/// Tags at or above this value belong to the fault-tolerance protocol:
/// abortable_barrier builds its tags from here.
inline constexpr int kFaultProtocolTagBase = 1 << 24;

/// Crash-aware barrier for the fault-tolerance layer: a dissemination
/// barrier (ceil(log2 P) rounds of 8-byte exchanges) whose receives
/// resolve early when `abort` fires. Returns true when every member
/// completed, false when aborted.
///
/// Unlike the plain collectives, matching is NOT by per-group sequence
/// number (survivors of a crash have divergent sequence counters).
/// Callers pass an `epoch_key` that is identical on every member for
/// the same logical rendezvous and never reused across attempts; it is
/// folded into the tag so stale messages from an aborted attempt can
/// never match a later barrier.
sim::Task<bool> abortable_barrier(NxContext& ctx, const Group& g,
                                  sim::Trigger& abort, int epoch_key);

/// Root's payload (bytes, data) reaches every member. Non-roots pass
/// bytes only (must equal root's). Returns the payload at every member.
sim::Task<Message> bcast(NxContext& ctx, const Group& g, int root,
                         Bytes bytes, Payload data = {},
                         CollectiveAlgo algo = CollectiveAlgo::Binomial);

/// Combine every member's contribution at the root. Non-root members
/// receive an empty message. Payloads may be null (modeled mode): the
/// schedule and byte counts are identical, the combine is skipped.
sim::Task<Message> reduce(NxContext& ctx, const Group& g, int root,
                          ReduceOp op, Bytes bytes, Payload contribution);

/// reduce + bcast (Binomial) or a direct algorithm; every member gets
/// the combined payload.
sim::Task<Message> allreduce(NxContext& ctx, const Group& g, ReduceOp op,
                             Bytes bytes, Payload contribution,
                             CollectiveAlgo algo = CollectiveAlgo::Binomial);

/// Root collects every member's payload, ordered by group index.
/// Non-roots get an empty vector.
sim::Task<std::vector<Message>> gather(NxContext& ctx, const Group& g,
                                       int root, Bytes bytes,
                                       Payload contribution);

/// Every member sends a (same-sized) slice to every other member.
/// Returns the received slices ordered by group index.
sim::Task<std::vector<Message>> alltoall(NxContext& ctx, const Group& g,
                                         Bytes bytes_each,
                                         std::vector<Payload> slices = {});

/// Everyone contributes a slice; everyone receives all slices ordered by
/// group index (ring algorithm: bandwidth-optimal, P-1 steps).
sim::Task<std::vector<Message>> allgather(NxContext& ctx, const Group& g,
                                          Bytes bytes_each,
                                          Payload contribution = {});

/// Deterministically combine two reduce contributions (exposed for
/// tests). `a` must come from the lower group index.
Payload combine(ReduceOp op, const Payload& a, const Payload& b);

}  // namespace hpccsim::nx
