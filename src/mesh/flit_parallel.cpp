// The band step — the flit network's one cycle implementation — and
// the parallel scheduler that pipelines row bands of it, byte-identical
// to the sequential fast path at any thread count (docs/MODEL.md §11).
//
// Cycle. A band of rows [lo, hi) steps cycle c in three phases:
// injection (phase1), switch allocation and traversal over its routers
// (phase2_router, in id order), and the staged-arrival apply (phase3).
// The sequential network is the one band that spans every row; step(),
// step_reference() (full scan instead of the active set) and run()
// drive it through band_cycle<false>, which has no boundaries.
//
// Layout. A parallel run splits the mesh into B = min(2*threads,
// height) bands of contiguous rows; ids are row-major, so each band is
// a contiguous id range, E/W links never leave a band, and every
// cross-band link is a N/S link on one of the B-1 band boundaries.
// Group g owns the band pair (2g, 2g+1) and runs on the process-wide
// WorkerPool (core/barrier.hpp): group 0 on the caller's thread, group
// g on worker g-1.
//
// Schedule. The sequential walk steps routers in id order, so during
// cycle c a router sees post-pop buffer occupancy at lower-id
// neighbours and cycle-boundary occupancy at higher-id neighbours.
// That asymmetry fixes the legal lookahead exactly: a band may run
// cycle c only when
//
//     progress[band-1] >= c      (upper neighbour finished cycle c)
//     progress[band+1] >= c-1    (lower neighbour finished cycle c-1)
//
// which an odd-even band pairing turns into a pipeline: each thread
// alternates its two bands, and the two wait conditions guarantee
// adjacent bands never execute concurrently. All cross-band state can
// therefore be plain (non-atomic) fields, with happens-before supplied
// by the ProgressCounter publish/await pairs (core/barrier.hpp).
//
// Boundary traffic. A flit crossing a band boundary is staged in a
// per-directed-edge SPSC ring as a (cycle, flit) entry; the owning
// band applies entries for cycle c-1 at the start of its cycle c —
// the same instant phase 3 of cycle c-1 would have made them visible.
// Downstream occupancy across a boundary is read from a per-edge
// credit mirror, occ = sent - consumed: the feeder bumps `sent` when
// it stages, the owner bumps `consumed` when it pops, and the two wait
// conditions above make the mirror equal the exact post-pop /
// cycle-boundary value the sequential walk reads.
//
// Each burst runs a window of cycles between global reductions; the
// window size does not affect results, only fork-join amortization.
// Message-visible results (delivered cycles, link/injected/ejected
// totals, final cycle) are byte-identical to the sequential path;
// schedule diagnostics (visits, skip/ffwd, shard counters) are
// deterministic per thread count only.
#include <algorithm>
#include <bit>
#include <exception>
#include <limits>
#include <vector>

#include "mesh/flit.hpp"

namespace hpccsim::mesh {

namespace {
// A flit leaving east arrives on the neighbour's west input, etc.; the
// Dir encoding pairs opposites as (E=0,W=1) and (N=2,S=3), so the
// downstream input port is the output direction with its low bit
// flipped.
int opposite(int dir) { return dir ^ 1; }
constexpr int kNorth = static_cast<int>(Dir::North);
constexpr int kSouth = static_cast<int>(Dir::South);
constexpr std::int64_t kPoison = std::numeric_limits<std::int64_t>::max();
}  // namespace

// One directed cross-band link. `sent`/`wr`/`ring` are written by the
// feeder band, `consumed`/`rd` by the owner band; the pipeline schedule
// keeps the two bands from ever executing concurrently, so plain fields
// suffice.
struct FlitNetwork::Edge {
  struct Entry {
    std::int64_t cycle = 0;
    Flit flit;
  };
  static constexpr std::int64_t kRing = 8;
  std::int32_t port = -1;  // owner-side input port (flat pidx)
  std::int64_t sent = 0;
  std::int64_t wr = 0;
  std::int64_t consumed = 0;
  std::int64_t rd = 0;
  Entry ring[kRing];
};

// The edge band b feeds toward router `node`, or null when `node` is in
// the band.
FlitNetwork::Edge* FlitNetwork::edge_to(const Band& b, NodeId node) const {
  if (node < b.lo) return b.to_above + (node - b.lo + mesh_.width());
  if (node >= b.hi) return b.to_below + (node - b.hi);
  return nullptr;
}

// Occupancy of input port `port` at router `node` as the sequential walk
// reads it: buffered + staged in band, the credit mirror across a band
// boundary.
template <bool kSharded>
std::int32_t FlitNetwork::occ(const Band& b, NodeId node, int port) const {
  if constexpr (kSharded)
    if (const Edge* e = edge_to(b, node))
      return static_cast<std::int32_t>(e->sent - e->consumed);
  const auto p = static_cast<std::size_t>(pidx(node, port));
  return static_cast<std::int32_t>(q_size_[p]) + staged_count_[p];
}

template <bool kSharded>
void FlitNetwork::pop(Band& b, NodeId node, int port) {
  const auto p = static_cast<std::size_t>(pidx(node, port));
  auto& head = q_head_[p];
  head = static_cast<std::uint16_t>(head + 1 == cap_ ? 0 : head + 1);
  --q_size_[p];
  if (--router_flits_[static_cast<std::size_t>(node)] == 0)
    clear_local(b.active, node - b.lo);
  if constexpr (kSharded) {
    // A boundary input returns the credit to its feeder's mirror.
    const std::int32_t w = mesh_.width();
    if (port == kNorth && b.from_above && node - b.lo < w)
      ++b.from_above[node - b.lo].consumed;
    else if (port == kSouth && b.from_below && b.hi - node <= w)
      ++b.from_below[node - (b.hi - w)].consumed;
  }
}

void FlitNetwork::push_fifo(Band& b, std::int32_t p, NodeId node,
                            const Flit& f) {
  const auto head = q_head_[static_cast<std::size_t>(p)];
  auto& size = q_size_[static_cast<std::size_t>(p)];
  HPCCSIM_ASSERT(static_cast<std::int32_t>(size) < cap_);
  std::int32_t slot = head + size;
  if (slot >= cap_) slot -= cap_;
  buf_[static_cast<std::size_t>(p * cap_ + slot)] = f;
  ++size;
  if (router_flits_[static_cast<std::size_t>(node)]++ == 0)
    set_local(b.active, node - b.lo);
}

template <bool kSharded>
void FlitNetwork::stage_to(Band& b, NodeId node, int port, const Flit& f,
                           [[maybe_unused]] std::int64_t c) {
  if constexpr (kSharded)
    if (Edge* e = edge_to(b, node)) {
      HPCCSIM_ASSERT(e->wr - e->rd < Edge::kRing);
      e->ring[e->wr & (Edge::kRing - 1)] = Edge::Entry{c, f};
      ++e->wr;
      ++e->sent;
      ++b.boundary;
      return;
    }
  b.staged.push_back(Staged{node, port, f});
  ++staged_count_[static_cast<std::size_t>(pidx(node, port))];
}

// Make boundary arrivals staged during cycle `apply_c` visible: phase 3
// of that cycle for the band's boundary inputs.
void FlitNetwork::apply_inbound(Band& b, std::int64_t apply_c) {
  const std::int32_t w = mesh_.width();
  for (Edge* in : {b.from_above, b.from_below}) {
    if (!in) continue;
    for (Edge* ed = in; ed != in + w; ++ed)
      for (; ed->rd < ed->wr; ++ed->rd) {
        const Edge::Entry& en = ed->ring[ed->rd & (Edge::kRing - 1)];
        HPCCSIM_ASSERT(en.cycle >= apply_c);
        if (en.cycle > apply_c) break;
        push_fifo(b, ed->port, ed->port / kPorts, en.flit);
      }
  }
}

// Phase 1: injection — one flit per node per cycle into the local input
// port, in node-id order over the band's sources with pending messages.
void FlitNetwork::phase1(Band& b, std::int64_t c) {
  for (std::size_t wi = 0; wi < b.inject.size(); ++wi) {
    std::uint64_t w = b.inject[wi];
    while (w) {
      const NodeId n =
          b.lo + static_cast<NodeId>((wi << 6) + std::countr_zero(w));
      w &= w - 1;
      auto& st = inject_[static_cast<std::size_t>(n)];
      const std::int32_t m = st.pending.front();
      if (messages_[static_cast<std::size_t>(m)].inject_cycle >
          static_cast<std::uint64_t>(c))
        continue;
      if (occ<false>(b, n, kLocal) >= cap_) continue;
      const std::int64_t total = flits_of(m);
      Flit f;
      f.msg = m;
      f.dst = messages_[static_cast<std::size_t>(m)].dst;
      f.head = st.flits_sent == 0;
      f.tail = st.flits_sent == total - 1;
      stage_to<false>(b, n, kLocal, f, c);
      ++b.in_flight;
      ++b.injected;
      if (++st.flits_sent == total) {
        st.pending.pop_front();
        st.flits_sent = 0;
        if (st.pending.empty()) clear_local(b.inject, n - b.lo);
      }
    }
  }
}

// Phase 2 for one router: switch allocation, then traversal.
template <bool kSharded>
void FlitNetwork::phase2_router(Band& b, NodeId n, std::int64_t c) {
  const std::int32_t base = pidx(n, 0);

  // Allocation: each ungranted head flit claims its best free candidate
  // output — for adaptive routing, the one with the most downstream
  // buffer space (ties: route-preference order).
  for (int ip = 0; ip < kPorts; ++ip) {
    const std::int32_t p = base + ip;
    if (q_size_[static_cast<std::size_t>(p)] == 0) continue;
    const Flit& front = fifo_front(p);
    if (!front.head) continue;
    bool granted = false;
    for (int op = 0; op < kPorts; ++op)
      granted = granted || owner_[static_cast<std::size_t>(base + op)] == ip;
    if (granted) continue;
    int cands[3];
    int nc = 0;
    route_candidates(n, front.dst, cands, nc);
    int best = -1;
    std::int32_t best_space = -1;
    for (int k = 0; k < nc; ++k) {
      const int op = cands[k];
      if (owner_[static_cast<std::size_t>(base + op)] >= 0) continue;
      std::int32_t space;
      if (op == kLocal) {
        space = std::numeric_limits<std::int32_t>::max();
      } else {
        const NodeId next = nbr_[static_cast<std::size_t>(n) * 4 +
                                 static_cast<std::size_t>(op)];
        space = cap_ - occ<kSharded>(b, next, opposite(op));
      }
      if (space > best_space) {
        best_space = space;
        best = op;
      }
    }
    if (best >= 0)
      owner_[static_cast<std::size_t>(base + best)] =
          static_cast<std::int8_t>(ip);
  }

  // Traversal: one flit per owned output port.
  for (int op = 0; op < kPorts; ++op) {
    const std::int8_t own = owner_[static_cast<std::size_t>(base + op)];
    if (own < 0) continue;
    const std::int32_t p = base + own;
    if (q_size_[static_cast<std::size_t>(p)] == 0) continue;
    const Flit f = fifo_front(p);

    if (op == kLocal) {
      // Ejection: always accepted.
      pop<kSharded>(b, n, own);
      --b.in_flight;
      ++b.ejected;
      if (f.tail) {
        auto& msg = messages_[static_cast<std::size_t>(f.msg)];
        HPCCSIM_ASSERT(!msg.delivered);
        // Charge router pipeline depth once per hop of the route.
        msg.delivered_cycle =
            static_cast<std::uint64_t>(c) + 1 +
            static_cast<std::uint64_t>(params_.pipeline_cycles) *
                static_cast<std::uint64_t>(mesh_.distance(msg.src, msg.dst));
        msg.delivered = true;
        --b.undelivered;
        b.last_tail = static_cast<std::uint64_t>(c) + 1;
        owner_[static_cast<std::size_t>(base + op)] = -1;
      }
    } else {
      const NodeId next = nbr_[static_cast<std::size_t>(n) * 4 +
                               static_cast<std::size_t>(op)];
      HPCCSIM_ASSERT(next >= 0);
      const int nip = opposite(op);
      if (occ<kSharded>(b, next, nip) >= cap_) continue;  // credit stall
      pop<kSharded>(b, n, own);
      stage_to<kSharded>(b, next, nip, f, c);
      ++b.link;
      if (f.tail) owner_[static_cast<std::size_t>(base + op)] = -1;
    }
  }
}

// Phase 3: staged arrivals become visible next cycle. At most one flit
// is staged per (node, port) per cycle — each input port has a unique
// upstream output — so application order cannot reorder a FIFO.
void FlitNetwork::phase3(Band& b) {
  for (const Staged& st : b.staged) {
    const std::int32_t p = pidx(st.node, st.port);
    push_fifo(b, p, st.node, st.flit);
    staged_count_[static_cast<std::size_t>(p)] = 0;
  }
  b.staged.clear();
}

template <bool kSharded>
void FlitNetwork::band_cycle(Band& b, std::int64_t c, bool full_scan) {
  if constexpr (kSharded) apply_inbound(b, c - 1);
  phase1(b, c);
  if (full_scan) {
    for (NodeId n = b.lo; n < b.hi; ++n) phase2_router<kSharded>(b, n, c);
  } else {
    // Only routers holding a visible flit can change any state this
    // cycle; both walks below visit exactly those routers in id order,
    // matching the full scan (skipped routers are provable no-ops).
    std::int64_t cnt = 0;
    for (const std::uint64_t w : b.active) cnt += std::popcount(w);
    b.visits += static_cast<std::uint64_t>(cnt);
    if (cnt * 2 >= static_cast<std::int64_t>(b.hi - b.lo)) {
      // Dense regime (saturation): a predictable linear sweep beats
      // the bit-extraction chain.
      for (NodeId n = b.lo; n < b.hi; ++n)
        if (router_flits_[static_cast<std::size_t>(n)] > 0)
          phase2_router<kSharded>(b, n, c);
    } else {
      // Sparse regime: walk set bits. Bits are only cleared for the
      // router being visited, so snapshotting each word is safe.
      for (std::size_t wi = 0; wi < b.active.size(); ++wi) {
        std::uint64_t w = b.active[wi];
        while (w) {
          const NodeId n =
              b.lo + static_cast<NodeId>((wi << 6) + std::countr_zero(w));
          w &= w - 1;
          phase2_router<kSharded>(b, n, c);
        }
      }
    }
  }
  phase3(b);
}

bool FlitNetwork::step_whole(bool full_scan) {
  const std::uint64_t moves = whole_.link + whole_.injected + whole_.ejected;
  band_cycle<false>(whole_, static_cast<std::int64_t>(cycle_), full_scan);
  ++cycle_;
  return whole_.link + whole_.injected + whole_.ejected != moves;
}

bool FlitNetwork::step() { return step_whole(false); }
bool FlitNetwork::step_reference() { return step_whole(true); }

void FlitNetwork::rebuild_bitmaps(Band& b) {
  std::fill(b.active.begin(), b.active.end(), 0);
  std::fill(b.inject.begin(), b.inject.end(), 0);
  for (NodeId n = b.lo; n < b.hi; ++n) {
    if (router_flits_[static_cast<std::size_t>(n)] > 0)
      set_local(b.active, n - b.lo);
    if (!inject_[static_cast<std::size_t>(n)].pending.empty())
      set_local(b.inject, n - b.lo);
  }
}

struct FlitNetwork::ParCtx {
  FlitNetwork* net = nullptr;
  int groups = 0;
  std::vector<Band> bands;
  std::vector<Edge> edges;
  std::int64_t begin = 0, limit = 0;       // current burst [begin, limit)
  std::vector<std::exception_ptr> errors;  // one slot per group

  // One group's share of a burst: pipeline its band pair through
  // [begin, limit) under the two wait conditions, then drain the
  // last cycle's boundary arrivals.
  void group_loop(int g) {
    const int i0 = 2 * g;
    const int nbands = static_cast<int>(bands.size());
    Band& s0 = bands[static_cast<std::size_t>(i0)];
    Band* s1 =
        (i0 + 1 < nbands) ? &bands[static_cast<std::size_t>(i0 + 1)] : nullptr;
    const bool s1_below = i0 + 2 < nbands;  // s1 has a lower neighbour
    for (std::int64_t c = begin; c < limit; ++c) {
      // s0 cycle c needs prog[s0-1] >= c; prog[s0+1] >= c-1 holds
      // because this thread ran s1's cycle c-1 last iteration.
      if (i0 > 0)
        s0.waits += static_cast<std::uint64_t>(
            bands[static_cast<std::size_t>(i0 - 1)].progress.await(c));
      net->band_cycle<true>(s0, c, false);
      s0.progress.publish(c);
      if (s1) {
        // s1 cycle c needs prog[s1+1] >= c-1; prog[s1-1] >= c was just
        // published above.
        if (s1_below)
          s1->waits += static_cast<std::uint64_t>(
              bands[static_cast<std::size_t>(i0 + 2)].progress.await(c - 1));
        net->band_cycle<true>(*s1, c, false);
        s1->progress.publish(c);
      }
    }
    // Drain: s0's feeders (band s0-1, awaited to limit-1 above; s1,
    // same thread) are done. s1's lower feeder still needs a wait.
    if (s1 && s1_below)
      s1->waits += static_cast<std::uint64_t>(
          bands[static_cast<std::size_t>(i0 + 2)].progress.await(limit - 1));
    net->apply_inbound(s0, limit - 1);
    if (s1) net->apply_inbound(*s1, limit - 1);
  }

  // Exception containment: record, then poison this group's progress
  // so neighbours' (bounded) waits can't deadlock; the coordinator
  // rethrows after join and discards the burst.
  void run_group(int g) {
    try {
      group_loop(g);
    } catch (...) {
      errors[static_cast<std::size_t>(g)] = std::current_exception();
      bands[static_cast<std::size_t>(2 * g)].progress.publish(kPoison);
      if (static_cast<std::size_t>(2 * g + 1) < bands.size())
        bands[static_cast<std::size_t>(2 * g + 1)].progress.publish(kPoison);
    }
  }

  void run_burst(std::int64_t burst_limit) {
    begin = static_cast<std::int64_t>(net->cycle_);
    limit = burst_limit;
    for (Band& s : bands) {
      net->rebuild_bitmaps(s);
      s.staged.clear();
      s.link = s.injected = s.ejected = s.visits = 0;
      s.boundary = s.waits = 0;
      s.in_flight = s.undelivered = 0;
      s.last_tail = 0;
      s.progress.reset(begin - 1);
    }
    for (Edge& ed : edges) {
      ed.sent = net->q_size_[static_cast<std::size_t>(ed.port)];
      ed.consumed = 0;
      ed.wr = ed.rd = 0;
    }
    std::fill(errors.begin(), errors.end(), nullptr);

    WorkerPool::instance().dispatch(groups, [this](int g) { run_group(g); });

    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);

    Band& whole = net->whole_;
    std::uint64_t last_tail = 0;
    for (const Band& s : bands) {
      whole.link += s.link;
      whole.injected += s.injected;
      whole.ejected += s.ejected;
      whole.visits += s.visits;
      whole.boundary += s.boundary;
      whole.waits += s.waits;
      whole.in_flight += s.in_flight;
      whole.undelivered += s.undelivered;
      last_tail = std::max(last_tail, s.last_tail);
    }
    ++net->windows_;
    if (whole.undelivered == 0) {
      // Cycles after the last tail ejection are provable no-ops
      // (network empty, nothing pending), so land the clock exactly
      // where the sequential loop would have stopped.
      HPCCSIM_ASSERT(whole.in_flight == 0);
      HPCCSIM_ASSERT(last_tail > static_cast<std::uint64_t>(begin));
      net->cycle_ = last_tail;
    } else {
      net->cycle_ = static_cast<std::uint64_t>(limit);
    }
    // Restore the whole-mesh bitmaps for any subsequent sequential
    // stepping (or the next burst's band init).
    net->rebuild_bitmaps(whole);
  }
};

void FlitNetwork::ParCtxDeleter::operator()(ParCtx* p) const { delete p; }

FlitNetwork::~FlitNetwork() = default;

bool FlitNetwork::par_eligible() const {
  // Small meshes cannot amortize even one handoff boundary; run them
  // sequentially (results are identical either way).
  return threads_ > 1 && mesh_.height() >= 4 && n_ >= 64;
}

void FlitNetwork::ensure_par_ctx() {
  if (par_) return;
  par_.reset(new ParCtx);
  ParCtx& ctx = *par_;
  ctx.net = this;
  const std::int32_t width = mesh_.width();
  const std::int32_t height = mesh_.height();
  const int nbands = static_cast<int>(
      std::min<std::int32_t>(2 * threads_, height));
  ctx.groups = (nbands + 1) / 2;
  ctx.bands = std::vector<Band>(static_cast<std::size_t>(nbands));
  ctx.errors.resize(static_cast<std::size_t>(ctx.groups));
  // Boundary b (above band b, b >= 1) holds 2*width edges: first the
  // "down" edges into band b's top-row North inputs, then the "up" edges
  // into band b-1's bottom-row South inputs.
  ctx.edges.resize(static_cast<std::size_t>(nbands - 1) * 2 *
                   static_cast<std::size_t>(width));
  const auto row_lo = [&](int b) {
    return static_cast<std::int32_t>(
        (static_cast<std::int64_t>(b) * height) / nbands);
  };
  for (int b = 0; b < nbands; ++b) {
    Band& s = ctx.bands[static_cast<std::size_t>(b)];
    s.lo = row_lo(b) * width;
    s.hi = row_lo(b + 1) * width;
    const std::size_t words =
        static_cast<std::size_t>((s.hi - s.lo + 63) / 64);
    s.active.assign(words, 0);
    s.inject.assign(words, 0);
    if (b > 0) {  // the boundary above
      s.from_above = &ctx.edges[static_cast<std::size_t>((b - 1) * 2 * width)];
      s.to_above = s.from_above + width;
    }
    if (b + 1 < nbands) {  // the boundary below
      s.to_below = &ctx.edges[static_cast<std::size_t>(b * 2 * width)];
      s.from_below = s.to_below + width;
    }
    for (std::int32_t x = 0; x < width; ++x) {
      if (s.from_above) s.from_above[x].port = pidx(s.lo + x, kNorth);
      if (s.from_below)
        s.from_below[x].port = pidx(s.hi - width + x, kSouth);
    }
  }
}

void FlitNetwork::run_parallel(std::uint64_t max_cycles) {
  ensure_par_ctx();
  const auto hold = WorkerPool::instance().acquire(par_->groups);
  while (whole_.undelivered > 0) {
    if (cycle_ >= max_cycles) throw_max_cycles(max_cycles);
    if (whole_.in_flight == 0 && try_empty_advance(max_cycles)) continue;
    par_->run_burst(static_cast<std::int64_t>(
        std::min(cycle_ + window_cycles_, max_cycles)));
  }
}

}  // namespace hpccsim::mesh
