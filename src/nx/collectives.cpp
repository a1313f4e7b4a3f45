#include "nx/collectives.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "nx/machine_runtime.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace hpccsim::nx {

namespace {
// Collective tags live far above any user tag.
constexpr int kCollectiveTagBase = 1 << 20;
constexpr int kSeqSpan = 8192;

int collective_tag(NxContext& ctx, const Group& g) {
  const int seq = ctx.next_collective_seq(g.tag_space());
  return kCollectiveTagBase + g.tag_space() * kSeqSpan + (seq % kSeqSpan);
}

// Records one collective invocation into the machine's per-collective
// latency histogram ("nx.collective.<name>.ns") and, when tracing is
// on, as a slice on the caller's rank track. A coroutine-frame local:
// the destructor runs when the collective's body completes, so the
// recorded interval is exactly [entry, completion] in simulated time.
// Composed collectives nest — allreduce(Binomial) also records its
// inner reduce and bcast, barrier its inner allreduce — which is
// deliberate: the histogram is a call profile, not an app profile.
//
// The histogram is resolved by enum through the bound registry's
// per-kind cache (nx::CollectiveHistograms), so entering a collective
// builds no "nx.collective." + name string. When a skeleton recorder
// is attached, entry/exit also emit CollBegin/CollEnd ops so replay
// can reproduce the same histogram rows.
class CollectiveTimer {
 public:
  CollectiveTimer(NxContext& ctx, CollectiveKind kind)
      : ctx_(&ctx), kind_(kind), start_(ctx.now()) {
    if (SkeletonRecorder* rec = ctx.skeleton_recorder())
      rec->ops.push_back(SkelOp{SkelOp::CollBegin,
                                static_cast<std::uint8_t>(kind), 0, 0, 0});
  }
  CollectiveTimer(const CollectiveTimer&) = delete;
  CollectiveTimer& operator=(const CollectiveTimer&) = delete;
  ~CollectiveTimer() {
    NxMachine& m = ctx_->machine();
    const sim::Time end = ctx_->now();
    // Through the context, not the machine: during a parallel run the
    // context routes this into a band-private registry (merged after
    // the run), so bands never write the shared registry concurrently.
    ctx_->collective_histogram(kind_).record(
        static_cast<std::int64_t>((end - start_).as_ns()));
    if (obs::TraceWriter* tw = m.trace_writer())
      tw->complete(ctx_->rank(), collective_name(kind_), "collective",
                   start_, end);
    if (SkeletonRecorder* rec = ctx_->skeleton_recorder())
      rec->ops.push_back(SkelOp{SkelOp::CollEnd,
                                static_cast<std::uint8_t>(kind_), 0, 0, 0});
  }

 private:
  NxContext* ctx_;
  CollectiveKind kind_;
  sim::Time start_;
};
}  // namespace

const char* collective_name(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::Barrier: return "barrier";
    case CollectiveKind::AbortableBarrier: return "abortable_barrier";
    case CollectiveKind::Bcast: return "bcast";
    case CollectiveKind::Reduce: return "reduce";
    case CollectiveKind::Allreduce: return "allreduce";
    case CollectiveKind::Gather: return "gather";
    case CollectiveKind::Alltoall: return "alltoall";
    case CollectiveKind::Allgather: return "allgather";
  }
  return "?";
}

Group::Group(int first, int stride, int size, int tag_space)
    : first_(first), stride_(stride), size_(size), tag_space_(tag_space) {
  HPCCSIM_EXPECTS(first >= 0);
  HPCCSIM_EXPECTS(stride >= 1);
  HPCCSIM_EXPECTS(size >= 1);
  HPCCSIM_EXPECTS(tag_space >= 0);
  // The last member must be an int, so rank_at never overflows.
  HPCCSIM_EXPECTS(first + std::int64_t{stride} * (size - 1) <=
                  std::numeric_limits<int>::max());
}

static_assert(std::is_trivially_copyable_v<Group> && sizeof(Group) == 16);

Group Group::world(const NxContext& ctx) {
  return Group(/*first=*/0, /*stride=*/1, ctx.nodes(), /*tag_space=*/0);
}

Payload combine(ReduceOp op, const Payload& a, const Payload& b) {
  if (!a || !b) return {};  // modeled mode: sizes only, no arithmetic
  HPCCSIM_EXPECTS(a->size() == b->size());
  std::vector<double> out(a->size());
  switch (op) {
    case ReduceOp::Sum:
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = (*a)[i] + (*b)[i];
      break;
    case ReduceOp::Max:
      for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = std::max((*a)[i], (*b)[i]);
      break;
    case ReduceOp::Min:
      for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = std::min((*a)[i], (*b)[i]);
      break;
    case ReduceOp::MaxAbsLoc: {
      HPCCSIM_EXPECTS(out.size() % 2 == 0);
      for (std::size_t i = 0; i < out.size(); i += 2) {
        const double va = std::fabs((*a)[i]), vb = std::fabs((*b)[i]);
        // Ties resolve to the smaller index for determinism.
        const bool pick_a = va > vb || (va == vb && (*a)[i + 1] <= (*b)[i + 1]);
        out[i] = pick_a ? (*a)[i] : (*b)[i];
        out[i + 1] = pick_a ? (*a)[i + 1] : (*b)[i + 1];
      }
      break;
    }
  }
  return make_payload(std::move(out));
}

// ----------------------------------------------------------- broadcast --

// Every algorithm runs in bcast's own frame: the broadcasts of every LU
// panel and of every Binomial allreduce resume no frame below it.
sim::Task<Message> bcast(NxContext& ctx, const Group& g, int root, Bytes bytes,
                         Payload data, CollectiveAlgo algo) {
  HPCCSIM_EXPECTS(g.contains(ctx.rank()));
  HPCCSIM_EXPECTS(g.contains(root));
  CollectiveTimer timer(ctx, CollectiveKind::Bcast);
  const int tag = collective_tag(ctx, g);
  Message result{root, tag, bytes, std::move(data)};
  const int size = g.size();
  if (size == 1) co_return result;
  const int root_idx = g.index_of(root);
  const int me = g.index_of(ctx.rank());
  const int rel = (me - root_idx + size) % size;

  if (algo == CollectiveAlgo::Ring) {
    if (rel != 0) result = co_await ctx.recv(kAnySource, tag);
    if (rel + 1 < size)
      co_await ctx.send(g.rank_at((me + 1) % size), tag, bytes, result.payload);
    co_return result;
  }
  if (algo == CollectiveAlgo::Flat) {
    if (rel == 0) {
      for (int i = 0; i < size; ++i)
        if (i != root_idx)
          co_await ctx.send(g.rank_at(i), tag, bytes, result.payload);
    } else {
      result = co_await ctx.recv(root, tag);
    }
    co_return result;
  }

  // Binomial (RecursiveDoubling has no bcast of its own): MPICH-style
  // tree on relative indices. Scan masks upward to find the parent
  // (lowest set bit of rel), receive once, then forward to children at
  // decreasing masks.
  int mask = 1;
  while (mask < size) {
    if (rel & mask) {
      result =
          co_await ctx.recv(g.rank_at((rel - mask + root_idx) % size), tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < size)
      co_await ctx.send(g.rank_at((rel + mask + root_idx) % size), tag, bytes,
                        result.payload);
    mask >>= 1;
  }
  co_return result;
}

// -------------------------------------------------------------- reduce --

sim::Task<Message> reduce(NxContext& ctx, const Group& g, int root,
                          ReduceOp op, Bytes bytes, Payload contribution) {
  HPCCSIM_EXPECTS(g.contains(ctx.rank()));
  HPCCSIM_EXPECTS(g.contains(root));
  CollectiveTimer timer(ctx, CollectiveKind::Reduce);
  const int tag = collective_tag(ctx, g);
  const int size = g.size();
  const int root_idx = g.index_of(root);
  const int rel = (g.index_of(ctx.rank()) - root_idx + size) % size;
  auto abs_rank = [&](int r) { return g.rank_at((r + root_idx) % size); };

  Payload acc = std::move(contribution);
  for (int mask = 1; mask < size; mask <<= 1) {
    if (rel & mask) {
      // Send accumulated value to the parent and leave.
      co_await ctx.send(abs_rank(rel - mask), tag, bytes, acc);
      co_return Message{ctx.rank(), tag, 0, {}};
    }
    if (rel + mask < size) {
      // Receive from the specific child at this mask level so the
      // combine order (and therefore rounding) is identical every run.
      Message m = co_await ctx.recv(abs_rank(rel + mask), tag);
      // Child has the higher relative index: combine(low, high).
      acc = combine(op, acc, m.payload);
    }
  }
  co_return Message{ctx.rank(), tag, bytes, std::move(acc)};
}

sim::Task<Message> allreduce(NxContext& ctx, const Group& g, ReduceOp op,
                             Bytes bytes, Payload contribution,
                             CollectiveAlgo algo) {
  HPCCSIM_EXPECTS(g.contains(ctx.rank()));
  CollectiveTimer timer(ctx, CollectiveKind::Allreduce);
  const int root = g.rank_at(0);
  const int size = g.size();
  if (size == 1)
    co_return Message{ctx.rank(), 0, bytes, std::move(contribution)};

  if (algo == CollectiveAlgo::RecursiveDoubling) {
    // Power-of-two portion only; stragglers fold in via the root.
    // For simplicity (and because all grids here are powers of two or
    // handled fine by reduce+bcast), fall back when size is not 2^k.
    if ((size & (size - 1)) == 0) {
      const int tag = collective_tag(ctx, g);
      const int me = g.index_of(ctx.rank());
      Payload acc = std::move(contribution);
      for (int mask = 1; mask < size; mask <<= 1) {
        const int partner = g.rank_at(me ^ mask);
        co_await ctx.send(partner, tag, bytes, acc);
        Message m = co_await ctx.recv(partner, tag);
        // Canonical order: lower index's data first.
        acc = (me < (me ^ mask)) ? combine(op, acc, m.payload)
                                 : combine(op, m.payload, acc);
      }
      co_return Message{ctx.rank(), tag, bytes, std::move(acc)};
    }
  }
  if (algo == CollectiveAlgo::Ring) {
    // Unsegmented ring: accumulate around the ring, then broadcast back.
    const int tag = collective_tag(ctx, g);
    const int me = g.index_of(ctx.rank());
    Payload acc = std::move(contribution);
    if (me != 0) {
      Message m = co_await ctx.recv(g.rank_at(me - 1), tag);
      acc = combine(op, m.payload, acc);
    }
    if (me + 1 < size) {
      co_await ctx.send(g.rank_at(me + 1), tag, bytes, acc);
      // Wait for the final value to come back around.
      Message fin = co_await ctx.recv(kAnySource, tag + 0);
      acc = fin.payload;
      if (me != 0) co_await ctx.send(g.rank_at(me - 1), tag, bytes, acc);
    } else {
      // Last node holds the total; send it back down the chain.
      co_await ctx.send(g.rank_at(me - 1), tag, bytes, acc);
    }
    co_return Message{ctx.rank(), tag, bytes, std::move(acc)};
  }

  // Default: binomial reduce to rank_at(0), then binomial bcast.
  Message red =
      co_await reduce(ctx, g, root, op, bytes, std::move(contribution));
  // Hoisted out of the co_await expression: GCC 12 double-destroys a ?:
  // temporary materialized inside a co_await'ed call (wrong-code bug),
  // which would free the payload while the network still references it.
  Payload to_send;
  if (ctx.rank() == root) to_send = red.payload;
  Message out = co_await bcast(ctx, g, root, bytes, std::move(to_send));
  co_return out;
}

// ------------------------------------------------------------- barrier --

sim::Task<> barrier(NxContext& ctx, const Group& g) {
  CollectiveTimer timer(ctx, CollectiveKind::Barrier);
  // Zero-byte allreduce: correctness only needs the synchronization.
  co_await allreduce(ctx, g, ReduceOp::Sum, 0, {});
}

sim::Task<bool> abortable_barrier(NxContext& ctx, const Group& g,
                                  sim::Trigger& abort, int epoch_key) {
  HPCCSIM_EXPECTS(g.contains(ctx.rank()));
  HPCCSIM_EXPECTS(epoch_key >= 0);
  CollectiveTimer timer(ctx, CollectiveKind::AbortableBarrier);
  // Tags live in their own space above the collective tags; the epoch
  // key isolates attempts, the low bits isolate rounds (P <= 2^16).
  const int tag_base =
      kFaultProtocolTagBase + (epoch_key % (1 << 26)) * 16;

  if (abort.fired()) co_return false;
  const int size = g.size();
  if (size == 1) co_return true;

  const int me = g.index_of(ctx.rank());
  int round = 0;
  for (int dist = 1; dist < size; dist <<= 1, ++round) {
    const int to = g.rank_at((me + dist) % size);
    const int from = g.rank_at((me - dist + size) % size);
    co_await ctx.send(to, tag_base + round, 8);
    auto m = co_await ctx.recv_abortable(from, tag_base + round, abort);
    if (!m) co_return false;
  }
  co_return !abort.fired();
}

// ------------------------------------------------------ gather/alltoall --

sim::Task<std::vector<Message>> gather(NxContext& ctx, const Group& g,
                                       int root, Bytes bytes,
                                       Payload contribution) {
  HPCCSIM_EXPECTS(g.contains(ctx.rank()));
  CollectiveTimer timer(ctx, CollectiveKind::Gather);
  const int tag = collective_tag(ctx, g);
  std::vector<Message> out;
  if (ctx.rank() == root) {
    out.resize(static_cast<std::size_t>(g.size()));
    out[static_cast<std::size_t>(g.index_of(root))] =
        Message{root, tag, bytes, std::move(contribution)};
    for (int i = 0; i < g.size() - 1; ++i) {
      Message m = co_await ctx.recv(kAnySource, tag);
      out[static_cast<std::size_t>(g.index_of(m.src))] = std::move(m);
    }
  } else {
    co_await ctx.send(root, tag, bytes, std::move(contribution));
  }
  co_return out;
}

sim::Task<std::vector<Message>> alltoall(NxContext& ctx, const Group& g,
                                         Bytes bytes_each,
                                         std::vector<Payload> slices) {
  CollectiveTimer timer(ctx, CollectiveKind::Alltoall);
  HPCCSIM_EXPECTS(g.contains(ctx.rank()));
  HPCCSIM_EXPECTS(slices.empty() ||
                  static_cast<int>(slices.size()) == g.size());
  const int tag = collective_tag(ctx, g);
  const int me = g.index_of(ctx.rank());
  std::vector<Message> out(static_cast<std::size_t>(g.size()));

  // Self-slice short-circuits; others exchange pairwise, staggered by
  // index so traffic spreads over the mesh.
  out[static_cast<std::size_t>(me)] = Message{
      ctx.rank(), tag, bytes_each,
      slices.empty() ? Payload{} : slices[static_cast<std::size_t>(me)]};
  for (int step = 1; step < g.size(); ++step) {
    const int dst_idx = (me + step) % g.size();
    // Named local, not a ?: temporary in the co_await (GCC 12 bug; see
    // allreduce above).
    Payload slice;
    if (!slices.empty()) slice = slices[static_cast<std::size_t>(dst_idx)];
    co_await ctx.send(g.rank_at(dst_idx), tag, bytes_each, std::move(slice));
  }
  for (int step = 1; step < g.size(); ++step) {
    Message m = co_await ctx.recv(kAnySource, tag);
    out[static_cast<std::size_t>(g.index_of(m.src))] = std::move(m);
  }
  co_return out;
}

// ----------------------------------------------------------- allgather --

sim::Task<std::vector<Message>> allgather(NxContext& ctx, const Group& g,
                                          Bytes bytes_each,
                                          Payload contribution) {
  CollectiveTimer timer(ctx, CollectiveKind::Allgather);
  HPCCSIM_EXPECTS(g.contains(ctx.rank()));
  const int tag = collective_tag(ctx, g);
  const int size = g.size();
  const int me = g.index_of(ctx.rank());
  std::vector<Message> out(static_cast<std::size_t>(size));
  out[static_cast<std::size_t>(me)] =
      Message{ctx.rank(), tag, bytes_each, std::move(contribution)};
  if (size == 1) co_return out;

  // Ring: at step s, pass slice (me - s) to the right; after P-1 steps
  // everyone has everything, each link carrying (P-1) * bytes_each.
  const int right = g.rank_at((me + 1) % size);
  const int left_idx = (me - 1 + size) % size;
  for (int s = 0; s < size - 1; ++s) {
    const int send_idx = (me - s + size) % size;
    // Hoisted payload (GCC 12 ?:-in-co_await rule).
    Payload p = out[static_cast<std::size_t>(send_idx)].payload;
    co_await ctx.send(right, tag, bytes_each, std::move(p));
    Message m = co_await ctx.recv(g.rank_at(left_idx), tag);
    const int got_idx = (me - s - 1 + size) % size;
    m.src = g.rank_at(got_idx);  // logical origin of the slice
    out[static_cast<std::size_t>(got_idx)] = std::move(m);
  }
  co_return out;
}

}  // namespace hpccsim::nx
