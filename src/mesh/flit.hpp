// Cycle-accurate flit-level wormhole router network.
//
// This is the reference model the cheap analytical model is validated
// against (bench/ablate_contention). It simulates input-buffered wormhole
// routers at flit granularity:
//
//   - messages are split into flits (header carries the route);
//   - each router has 5 input ports (E/W/N/S/Injection), each a bounded
//     FIFO, and 5 output ports (E/W/N/S/Ejection);
//   - an output port is owned by one input port from header to tail
//     (wormhole channel reservation), other messages block behind it;
//   - one flit crosses each link per cycle, subject to downstream buffer
//     space (credit flow control);
//   - routing is XY dimension-order (deterministic) or west-first
//     turn-model adaptive; both are minimal and deadlock-free.
//
// The simulation is deterministic: routers are stepped in id order,
// input ports in index order, and adaptive choices break ties by
// route-preference order.
//
// Hot-path layout (docs/MODEL.md §10): router state is structure-of-
// arrays — flits are 12-byte POD records in one flat preallocated ring-
// buffer arena (per-port capacity = input_buffer_flits), with flat
// head/size/owner arrays beside it. After construction, stepping never
// touches the heap. Three scheduling optimisations sit on top, all
// provably result-identical to plain per-cycle stepping:
//
//   - active-set stepping: step() visits only routers that hold at
//     least one visible flit (a bitmap kept exact by push/pop), so the
//     per-cycle cost scales with flits in flight, not mesh size;
//   - idle-cycle skip: run() jumps the cycle counter over windows in
//     which the network is empty and no injection is eligible;
//   - wormhole fast-forward: when the network is empty and exactly one
//     message is due before any other, run() streams the whole worm
//     head-to-tail in closed form instead of stepping it cycle by
//     cycle, falling back to stepping the moment a second message
//     could contend.
//
// step_reference() / run_reference() keep the naive full-scan schedule
// compiled in as a cross-check mode: tests assert the fast path yields
// byte-identical delivered_cycle, link/injected/ejected flit counters,
// and final cycle on every configuration (tests/flit_test.cpp).
//
// Parallel mode (docs/MODEL.md §11): set_threads(T > 1) makes run()
// partition the mesh into spatially contiguous row bands, each stepped
// by the band step the sequential network runs as its one whole-mesh
// band, pipelined on the process-wide worker pool (core/barrier.hpp)
// under conservative lookahead synchronization. Flits crossing a band
// boundary travel through per-edge SPSC handoff rings; downstream
// buffer occupancy is mirrored by per-edge sent/consumed credit
// counters. The schedule is constructed so every cross-band read
// observes exactly the value the sequential id-order walk would have
// produced, so results — message delivery cycles, link/injected/ejected
// totals, final cycle — are byte-identical at any thread count.
// Scheduling diagnostics (skipped/fast-forwarded/visit/shard counters)
// are deterministic for a fixed thread count but legitimately differ
// across thread counts.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/barrier.hpp"
#include "core/time.hpp"
#include "mesh/topology.hpp"
#include "obs/counters.hpp"
#include "util/units.hpp"

namespace hpccsim::mesh {

/// Routing algorithm for the flit network.
enum class RouteAlgo {
  XY,         ///< dimension order: deterministic, deadlock-free
  WestFirst,  ///< turn-model partially-adaptive (Glass & Ni): all west
              ///< hops first, then adapt among E/N/S by buffer space
};

const char* route_algo_name(RouteAlgo a);

struct FlitParams {
  Bytes flit_bytes = 16;
  std::int32_t input_buffer_flits = 8;
  /// Channel bandwidth, used only to convert cycles to wall time.
  BytesPerSecond channel_bw = mb_per_s(25.0);
  /// Extra fixed cycles charged per hop for router pipeline depth.
  std::int32_t pipeline_cycles = 2;
  RouteAlgo routing = RouteAlgo::XY;
};

struct FlitMessage {
  NodeId src = 0;
  NodeId dst = 0;
  Bytes bytes = 0;
  std::uint64_t inject_cycle = 0;

  // Filled in by the simulator.
  std::uint64_t delivered_cycle = 0;
  bool delivered = false;
};

class FlitNetwork {
 public:
  FlitNetwork(Mesh2D mesh, FlitParams params);
  ~FlitNetwork();
  FlitNetwork(FlitNetwork&&) = delete;
  FlitNetwork& operator=(FlitNetwork&&) = delete;

  /// Queue a message for injection at its source from `inject_cycle` on.
  /// Returns the message index.
  std::size_t inject(NodeId src, NodeId dst, Bytes bytes,
                     std::uint64_t inject_cycle);

  /// Run until all injected messages are delivered (or `max_cycles` hits,
  /// which throws — the network is deadlock-free, so that is a bug).
  /// Uses the fast schedule: active-set stepping plus idle-cycle skip
  /// and wormhole fast-forward. Results are identical to
  /// run_reference() on every input.
  void run(std::uint64_t max_cycles = 50'000'000);

  /// Cross-check mode: run to completion with the naive full-scan
  /// schedule (every router visited every cycle, no skip, no
  /// fast-forward).
  void run_reference(std::uint64_t max_cycles = 50'000'000);

  /// Advance exactly one cycle (active-set schedule); returns true if
  /// any flit moved.
  bool step();

  /// Advance exactly one cycle visiting all routers (the pre-overhaul
  /// schedule); byte-identical state evolution to step().
  bool step_reference();

  /// Worker threads for run(). 1 (default) keeps today's sequential
  /// fast path with zero overhead. T > 1 shards the mesh into
  /// min(2*T, height) row bands pipelined across T threads; results
  /// stay byte-identical (docs/MODEL.md §11). Meshes too small to
  /// shard (height < 4 or fewer than 64 routers) silently run
  /// sequentially. Must not be called while run() is in progress.
  void set_threads(int threads);
  int threads() const { return threads_; }

  /// Cycles per parallel burst between global reductions (bitmap
  /// rebuild, counter roll-up, idle-skip checks). Larger windows
  /// amortize fork-join cost; results are identical for any value >= 1.
  void set_window(std::uint64_t cycles);

  std::uint64_t cycle() const { return cycle_; }
  const std::vector<FlitMessage>& messages() const { return messages_; }

  /// Total link traversals (one flit crossing one inter-router link);
  /// the "mesh.link.flits" observability counter. Ejections and
  /// injections are not link traversals and are counted separately.
  std::uint64_t link_flits() const { return whole_.link; }
  std::uint64_t injected_flits() const { return whole_.injected; }
  std::uint64_t ejected_flits() const { return whole_.ejected; }

  /// Flits currently buffered in the network (injected, not ejected).
  std::int64_t in_flight_flits() const { return whole_.in_flight; }
  /// Messages injected or queued but not yet fully delivered.
  std::int64_t undelivered() const { return whole_.undelivered; }

  // Fast-path scheduling counters (all zero under run_reference()).
  /// Cycles the clock jumped over because the network was provably idle.
  std::uint64_t skipped_cycles() const { return skipped_cycles_; }
  /// Flits streamed in bulk by the wormhole fast-forward.
  std::uint64_t fastforwarded_flits() const { return ffwd_flits_; }
  /// Messages delivered entirely by the wormhole fast-forward.
  std::uint64_t fastforwarded_messages() const { return ffwd_messages_; }
  /// Routers visited by the active-set schedule (full scan would be
  /// cycles * node_count).
  std::uint64_t router_visits() const { return whole_.visits; }

  // Parallel-scheduler counters (all zero when running sequentially).
  // Like the fast-path counters above, these are schedule diagnostics:
  // deterministic for a fixed thread count, but not comparable across
  // thread counts.
  /// Flits handed across a shard boundary through an SPSC edge ring.
  std::uint64_t boundary_flits() const { return whole_.boundary; }
  /// Futex parks taken while a shard waited on a neighbour's progress.
  std::uint64_t barrier_waits() const { return whole_.waits; }
  /// Parallel burst windows executed by run().
  std::uint64_t parallel_windows() const { return windows_; }

  /// Snapshot all counters into an observability registry under the
  /// "mesh.link.*" / "mesh.flit.*" names (docs/METRICS.md catalog).
  void dump_counters(obs::Registry& reg) const;

  /// Wall-clock duration of one cycle (flit serialization time).
  sim::Time cycle_time() const;

  /// Latency of message i in cycles (inject -> tail ejected). The
  /// message must be delivered (precondition; see try_latency_cycles).
  std::uint64_t latency_cycles(std::size_t i) const;

  /// Latency of message i, or nullopt while it is still undelivered.
  std::optional<std::uint64_t> try_latency_cycles(std::size_t i) const;

  const Mesh2D& mesh() const { return mesh_; }

 private:
  // Port numbering: 0..3 = Dir, 4 = local (injection on input side,
  // ejection on output side).
  static constexpr int kLocal = 4;
  static constexpr int kPorts = 5;

  struct Flit {
    std::int32_t msg = -1;
    NodeId dst = -1;
    std::uint8_t head = 0;
    std::uint8_t tail = 0;
  };
  static_assert(sizeof(Flit) <= 16 && std::is_trivially_copyable_v<Flit>,
                "flits must stay small POD records");

  struct Staged {
    NodeId node;
    std::int32_t port;
    Flit flit;
  };

  // Route computation: candidate output ports for a flit at `node`
  // heading to `dst`, in preference order (all minimal). XY returns one
  // candidate; WestFirst may return several for the adaptive phase.
  // kLocal (alone) when node == dst.
  void route_candidates(NodeId node, NodeId dst, int out[3], int& count) const;

  // Flat index of (node, port).
  std::int32_t pidx(NodeId node, int port) const {
    return node * kPorts + port;
  }
  const Flit& fifo_front(std::int32_t p) const {
    return buf_[static_cast<std::size_t>(p * cap_ + q_head_[
        static_cast<std::size_t>(p)])];
  }

  // --- The band step (src/mesh/flit_parallel.cpp) ---------------------
  // The flit cycle's one implementation. A band is a run of whole rows,
  // router ids [lo, hi): the sequential network is the band that spans
  // every row, and a parallel run pipelines min(2*T, height) of them
  // (docs/MODEL.md §11). Only kSharded instantiations route occupancy
  // reads, flits and credits across band boundaries, so the whole-mesh
  // step compiles without boundary checks.
  struct Edge;  // one directed cross-band link
  struct alignas(64) Band {
    NodeId lo = 0, hi = 0;
    // Bitmaps, bit j = router lo + j, exact at cycle boundaries: active
    // holds >= 1 visible flit, inject has a non-empty pending-message
    // queue. Band-private words, since rows are not 64-aligned.
    std::vector<std::uint64_t> active;
    std::vector<std::uint64_t> inject;
    std::vector<Staged> staged;  // in-band arrivals this cycle
    // Boundary edges, one per column, null without a neighbour band:
    // from_* feed this band's top-row North / bottom-row South inputs,
    // to_* carry its flits into the band above / below.
    Edge* from_above = nullptr;
    Edge* from_below = nullptr;
    Edge* to_above = nullptr;
    Edge* to_below = nullptr;
    ProgressCounter progress;  // last completed cycle (sharded bands)
    // The whole-mesh band's counters are the network's totals; a sharded
    // band's are one burst's deltas, added to them after the burst.
    std::uint64_t link = 0, injected = 0, ejected = 0, visits = 0;
    std::uint64_t boundary = 0, waits = 0;
    std::int64_t in_flight = 0, undelivered = 0;
    std::uint64_t last_tail = 0;  // cycle+1 of the latest tail ejection
  };

  static void set_local(std::vector<std::uint64_t>& bm, std::int32_t j) {
    bm[static_cast<std::size_t>(j >> 6)] |= std::uint64_t{1} << (j & 63);
  }
  static void clear_local(std::vector<std::uint64_t>& bm, std::int32_t j) {
    bm[static_cast<std::size_t>(j >> 6)] &= ~(std::uint64_t{1} << (j & 63));
  }

  // One cycle c of band b; `full_scan` visits every router (the
  // reference schedule) instead of the active set. The small per-flit
  // helpers are inline so the router walk keeps them in its body.
  template <bool kSharded>
  void band_cycle(Band& b, std::int64_t c, bool full_scan);
  void phase1(Band& b, std::int64_t c);
  template <bool kSharded>
  void phase2_router(Band& b, NodeId n, std::int64_t c);
  inline void phase3(Band& b);
  inline void apply_inbound(Band& b, std::int64_t apply_c);
  template <bool kSharded>
  inline std::int32_t occ(const Band& b, NodeId node, int port) const;
  template <bool kSharded>
  inline void pop(Band& b, NodeId node, int port);
  inline void push_fifo(Band& b, std::int32_t p, NodeId node,
                        const Flit& f);
  template <bool kSharded>
  inline void stage_to(Band& b, NodeId node, int port, const Flit& f,
                       std::int64_t c);
  inline Edge* edge_to(const Band& b, NodeId node) const;
  void rebuild_bitmaps(Band& b);  // from router_flits_ and inject_
  bool step_whole(bool full_scan);

  // Shared empty-network shortcut used by both the sequential and the
  // parallel run loops: when nothing is in flight, skip idle cycles
  // and/or stream a lone worm in closed form. Returns true if it
  // advanced state (caller should re-check the loop condition), false
  // if the network must be stepped normally.
  bool try_empty_advance(std::uint64_t max_cycles);

  // --- Parallel scheduler (src/mesh/flit_parallel.cpp) ----------------
  struct ParCtx;  // bands, edges and the burst pipeline
  struct ParCtxDeleter {
    void operator()(ParCtx*) const;  // defined where ParCtx is complete
  };
  bool par_eligible() const;
  void ensure_par_ctx();
  void run_parallel(std::uint64_t max_cycles);

  // The pending injection horizon when the network is empty: earliest
  // eligible inject cycle, the (unique) node holding it, and the
  // earliest cycle any *other* message could start injecting.
  struct InjectHorizon {
    std::uint64_t first = 0;       // min front inject_cycle
    NodeId node = -1;              // its source (-1 if tied across nodes)
    std::uint64_t second = 0;      // next message after that one
  };
  InjectHorizon inject_horizon() const;

  [[noreturn]] void throw_max_cycles(std::uint64_t max_cycles) const;

  std::int64_t flits_of(std::int32_t msg) const;

  Mesh2D mesh_;
  FlitParams params_;
  std::int32_t n_ = 0;    // router count
  std::int32_t cap_ = 0;  // per-input-port buffer capacity (flits)

  // --- SoA router state, all preallocated at construction -------------
  std::vector<Flit> buf_;                  // n * 5 * cap ring storage
  std::vector<std::uint16_t> q_head_;      // n * 5 ring head index
  std::vector<std::uint16_t> q_size_;      // n * 5 ring occupancy
  std::vector<std::int8_t> owner_;         // n * 5 output-port owner
  std::vector<std::int32_t> router_flits_; // n: visible flits per router
  std::vector<std::int16_t> staged_count_; // n * 5 staged this cycle
  std::vector<NodeId> nbr_;                // n * 4 neighbour table
  std::vector<std::int16_t> cx_, cy_;      // n coordinates
  // The band that spans every row: the sequential step's bitmaps and
  // arrival list, and the running counter totals.
  Band whole_;

  std::vector<FlitMessage> messages_;
  // Per-source queue of (message index) not yet fully injected and the
  // number of flits of the current message already injected. Cold path:
  // only inject() grows it.
  struct InjectState {
    std::deque<std::int32_t> pending;
    std::int64_t flits_sent = 0;
  };
  std::vector<InjectState> inject_;

  std::uint64_t cycle_ = 0;
  std::uint64_t skipped_cycles_ = 0;
  std::uint64_t ffwd_flits_ = 0;
  std::uint64_t ffwd_messages_ = 0;

  int threads_ = 1;
  std::uint64_t window_cycles_ = 1024;
  std::uint64_t windows_ = 0;
  std::unique_ptr<ParCtx, ParCtxDeleter> par_;
};

}  // namespace hpccsim::mesh
