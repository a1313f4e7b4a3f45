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
    Flit flit = 0;
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
  const Port& q = ports_[static_cast<std::size_t>(pidx(node, port))];
  return q.size + q.staged;
}

// A pop keeps head + size fixed, so an arrival staged in place at the
// slot after the visible flits stays there until phase 3 counts it.
template <bool kSharded>
void FlitNetwork::pop(Band& b, NodeId node, int port) {
  Port& q = ports_[static_cast<std::size_t>(pidx(node, port))];
  q.head = static_cast<std::uint16_t>(q.head + 1 == cap_ ? 0 : q.head + 1);
  --q.size;
  if (--router_flits_[static_cast<std::size_t>(node)] == 0) {
    clear_local(b.active, node - b.lo);
    --b.nactive;
  }
  if constexpr (kSharded) {
    // A boundary input returns the credit to its feeder's mirror.
    const std::int32_t w = mesh_.width();
    if (port == kNorth && b.from_above && node - b.lo < w)
      ++b.from_above[node - b.lo].consumed;
    else if (port == kSouth && b.from_below && b.hi - node <= w)
      ++b.from_below[node - (b.hi - w)].consumed;
  }
}

// Makes flit f visible at the back of port p at once (boundary arrivals).
void FlitNetwork::push_fifo(Band& b, std::int32_t p, Flit f) {
  Port& q = ports_[static_cast<std::size_t>(p)];
  HPCCSIM_ASSERT(q.size + q.staged < cap_);
  back_slot(p) = f;
  ++q.size;
  const NodeId node = p / kPorts;
  if (router_flits_[static_cast<std::size_t>(node)]++ == 0) {
    set_local(b.active, node - b.lo);
    ++b.nactive;
  }
}

// Stages flit f into input `port` of `node`: in place, in the ring slot
// after the visible flits, or across a band boundary through its edge.
// Each input port has a unique upstream output, so at most one flit is
// staged per (node, port) per cycle.
template <bool kSharded>
void FlitNetwork::stage_to(Band& b, NodeId node, int port, Flit f,
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
  const std::int32_t p = pidx(node, port);
  Port& q = ports_[static_cast<std::size_t>(p)];
  HPCCSIM_ASSERT(q.staged == 0);
  back_slot(p) = f;
  q.staged = 1;
  b.staged.push_back(p);
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
        push_fifo(b, ed->port, en.flit);
      }
  }
}

// Phase 1: injection — one flit per node per cycle into the local input
// port, in node-id order over the band's sources whose front message is
// due. Sources whose front falls due this cycle leave the heap first.
void FlitNetwork::phase1(Band& b, std::int64_t c) {
  const auto now = static_cast<std::uint64_t>(c);
  while (!b.waiting.empty() && b.waiting.front().cycle <= now) {
    set_local(b.inject, b.waiting.front().node - b.lo);
    std::pop_heap(b.waiting.begin(), b.waiting.end(), later);
    b.waiting.pop_back();
  }
  for (std::size_t wi = 0; wi < b.inject.size(); ++wi) {
    std::uint64_t w = b.inject[wi];
    while (w) {
      const NodeId n =
          b.lo + static_cast<NodeId>((wi << 6) + std::countr_zero(w));
      w &= w - 1;
      if (occ<false>(b, n, kLocal) >= cap_) continue;
      Source& st = sources_[static_cast<std::size_t>(n)];
      const std::int32_t m = st.head;
      const std::int64_t total = flits_of(m);
      const Flit f = static_cast<Flit>(m) << 2 |
                     (st.flits_sent == 0 ? kHead : 0) |
                     (st.flits_sent == total - 1 ? kTail : 0);
      stage_to<false>(b, n, kLocal, f, c);
      ++b.in_flight;
      ++b.injected;
      if (++st.flits_sent == total) {
        // The next message keeps the source's bit only if already due.
        st.flits_sent = 0;
        st.head = next_[static_cast<std::size_t>(m)];
        if (st.head < 0 ||
            messages_[static_cast<std::size_t>(st.head)].inject_cycle > now) {
          clear_local(b.inject, n - b.lo);
          if (st.head >= 0) wait_front(b, n);
        }
      }
    }
  }
}

std::uint8_t FlitNetwork::route_candidates(NodeId node, NodeId dst) const {
  const auto bit = [](Dir d) {
    return static_cast<std::uint8_t>(1u << static_cast<int>(d));
  };
  if (node == dst) return std::uint8_t{1u << kLocal};
  const Coord at = xy_[static_cast<std::size_t>(node)];
  const Coord to = xy_[static_cast<std::size_t>(dst)];
  if (params_.routing == RouteAlgo::XY) {
    if (at.x != to.x) return bit(at.x < to.x ? Dir::East : Dir::West);
    return bit(at.y < to.y ? Dir::South : Dir::North);
  }
  // West-first: every west hop precedes any other turn (deadlock-free
  // per the turn model); once dx >= 0, adapt among the productive
  // directions.
  if (at.x > to.x) return bit(Dir::West);
  std::uint8_t m = 0;
  if (at.x < to.x) m |= bit(Dir::East);
  if (at.y < to.y) m |= bit(Dir::South);
  else if (at.y > to.y) m |= bit(Dir::North);
  HPCCSIM_ASSERT(m != 0);
  return m;
}

// Phase 2 for one router: switch allocation, then traversal.
template <bool kSharded>
void FlitNetwork::phase2_router(Band& b, NodeId n, std::int64_t c) {
  const std::int32_t base = pidx(n, 0);
  Port* const port = &ports_[static_cast<std::size_t>(base)];

  // Allocation: each ungranted head flit claims its best free candidate
  // output — for adaptive routing, the one with the most downstream
  // buffer space (ties: route-preference order). An input that fronts a
  // body flit always holds a grant (its head took one, only its tail
  // releases it), so the grant check comes first. A head keeps the
  // front until it is granted, so its candidates are computed once and
  // kept in `want` until then.
  for (int ip = 0; ip < kPorts; ++ip) {
    if (port[ip].size == 0 || port[ip].grant >= 0) continue;
    if (port[ip].want == 0) {
      const Flit front = slot(base + ip, port[ip].head);
      if (!(front & kHead)) continue;
      port[ip].want = route_candidates(
          n, messages_[static_cast<std::size_t>(msg_of(front))].dst);
    }
    int best = -1;
    std::int32_t best_space = -1;
    for (unsigned w = port[ip].want; w; w &= w - 1) {
      const int op = std::countr_zero(w);
      if (port[op].owner >= 0) continue;
      const std::int32_t space =
          op == kLocal ? std::numeric_limits<std::int32_t>::max()
                       : cap_ - occ<kSharded>(b, n + step_[op], opposite(op));
      if (space > best_space) {
        best_space = space;
        best = op;
      }
    }
    if (best >= 0) {
      port[best].owner = static_cast<std::int8_t>(ip);
      port[ip].grant = static_cast<std::int8_t>(best);
      port[ip].want = 0;
    }
  }

  // Traversal: one flit per owned output port with downstream credit
  // (the ejection port always accepts).
  for (int op = 0; op < kPorts; ++op) {
    const int own = port[op].owner;
    if (own < 0 || port[own].size == 0) continue;
    if (op != kLocal &&
        occ<kSharded>(b, n + step_[op], opposite(op)) >= cap_)
      continue;  // credit stall
    const Flit f = slot(base + own, port[own].head);
    pop<kSharded>(b, n, own);
    if (op == kLocal) {
      --b.in_flight;
      ++b.ejected;
      if (f & kTail) {
        auto& msg = messages_[static_cast<std::size_t>(msg_of(f))];
        HPCCSIM_ASSERT(!msg.delivered);
        // Charge router pipeline depth once per hop of the route.
        msg.delivered_cycle =
            static_cast<std::uint64_t>(c) + 1 +
            static_cast<std::uint64_t>(params_.pipeline_cycles) *
                static_cast<std::uint64_t>(mesh_.distance(msg.src, msg.dst));
        msg.delivered = true;
        --b.undelivered;
        b.last_tail = static_cast<std::uint64_t>(c) + 1;
      }
    } else {
      stage_to<kSharded>(b, n + step_[op], opposite(op), f, c);
      ++b.link;
    }
    if (f & kTail) {
      port[op].owner = -1;
      port[own].grant = -1;
    }
  }
}

// Phase 3: arrivals staged in place become visible next cycle.
void FlitNetwork::phase3(Band& b) {
  for (const std::int32_t p : b.staged) {
    Port& q = ports_[static_cast<std::size_t>(p)];
    ++q.size;
    q.staged = 0;
    const NodeId node = p / kPorts;
    if (router_flits_[static_cast<std::size_t>(node)]++ == 0) {
      set_local(b.active, node - b.lo);
      ++b.nactive;
    }
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
    b.visits += static_cast<std::uint64_t>(b.nactive);
    if (b.nactive * 2 >= static_cast<std::int64_t>(b.hi - b.lo)) {
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

// Every pending source goes on the heap; phase 1 moves the due ones.
void FlitNetwork::rebuild_bitmaps(Band& b) {
  std::fill(b.active.begin(), b.active.end(), 0);
  std::fill(b.inject.begin(), b.inject.end(), 0);
  b.nactive = 0;
  b.waiting.clear();
  for (NodeId n = b.lo; n < b.hi; ++n) {
    if (router_flits_[static_cast<std::size_t>(n)] > 0) {
      set_local(b.active, n - b.lo);
      ++b.nactive;
    }
    const std::int32_t m = sources_[static_cast<std::size_t>(n)].head;
    if (m >= 0)
      b.waiting.push_back(
          {messages_[static_cast<std::size_t>(m)].inject_cycle, n});
  }
  std::make_heap(b.waiting.begin(), b.waiting.end(), later);
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
      ed.sent = net->ports_[static_cast<std::size_t>(ed.port)].size;
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
    s.waiting.reserve(static_cast<std::size_t>(s.hi - s.lo));
    s.staged.reserve(static_cast<std::size_t>(s.hi - s.lo) * kPorts);
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
