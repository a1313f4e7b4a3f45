#include "mesh/flit.hpp"

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace hpccsim::mesh {

namespace {
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
}  // namespace

FlitNetwork::FlitNetwork(Mesh2D mesh, FlitParams params)
    : mesh_(mesh), params_(params) {
  HPCCSIM_EXPECTS(params.flit_bytes > 0);
  HPCCSIM_EXPECTS(params.input_buffer_flits >= 2);
  HPCCSIM_EXPECTS(params.input_buffer_flits <= 4096);
  n_ = mesh_.node_count();
  cap_ = params.input_buffer_flits;
  const auto nports = static_cast<std::size_t>(n_) * kPorts;
  buf_.resize(nports * static_cast<std::size_t>(cap_));
  q_head_.assign(nports, 0);
  q_size_.assign(nports, 0);
  owner_.assign(nports, -1);
  staged_count_.assign(nports, 0);
  router_flits_.assign(static_cast<std::size_t>(n_), 0);
  whole_.hi = n_;
  whole_.active.assign(static_cast<std::size_t>((n_ + 63) / 64), 0);
  whole_.inject.assign(whole_.active.size(), 0);
  inject_.resize(static_cast<std::size_t>(n_));
  nbr_.resize(static_cast<std::size_t>(n_) * 4);
  cx_.resize(static_cast<std::size_t>(n_));
  cy_.resize(static_cast<std::size_t>(n_));
  for (NodeId n = 0; n < n_; ++n) {
    for (const Dir d : kAllDirs)
      nbr_[static_cast<std::size_t>(n) * 4 + static_cast<std::size_t>(d)] =
          mesh_.neighbour(n, d);
    const Coord c = mesh_.coord_of(n);
    cx_[static_cast<std::size_t>(n)] = static_cast<std::int16_t>(c.x);
    cy_[static_cast<std::size_t>(n)] = static_cast<std::int16_t>(c.y);
  }
}

std::size_t FlitNetwork::inject(NodeId src, NodeId dst, Bytes bytes,
                                std::uint64_t inject_cycle) {
  HPCCSIM_EXPECTS(src >= 0 && src < n_);
  HPCCSIM_EXPECTS(dst >= 0 && dst < n_);
  HPCCSIM_EXPECTS(src != dst);
  HPCCSIM_EXPECTS(bytes > 0);
  messages_.push_back(FlitMessage{src, dst, bytes, inject_cycle, 0, false});
  inject_[static_cast<std::size_t>(src)].pending.push_back(
      static_cast<std::int32_t>(messages_.size() - 1));
  set_local(whole_.inject, src);
  ++whole_.undelivered;
  return messages_.size() - 1;
}

std::int64_t FlitNetwork::flits_of(std::int32_t msg) const {
  const Bytes b = messages_[static_cast<std::size_t>(msg)].bytes;
  return static_cast<std::int64_t>((b + params_.flit_bytes - 1) /
                                   params_.flit_bytes);
}

const char* route_algo_name(RouteAlgo a) {
  switch (a) {
    case RouteAlgo::XY: return "xy";
    case RouteAlgo::WestFirst: return "west-first";
  }
  return "?";
}

void FlitNetwork::route_candidates(NodeId node, NodeId dst, int out[3],
                                   int& count) const {
  count = 0;
  if (node == dst) {
    out[count++] = kLocal;
    return;
  }
  const std::int32_t cx = cx_[static_cast<std::size_t>(node)];
  const std::int32_t cy = cy_[static_cast<std::size_t>(node)];
  const std::int32_t tx = cx_[static_cast<std::size_t>(dst)];
  const std::int32_t ty = cy_[static_cast<std::size_t>(dst)];
  if (params_.routing == RouteAlgo::XY) {
    if (cx != tx)
      out[count++] = static_cast<int>(cx < tx ? Dir::East : Dir::West);
    else
      out[count++] = static_cast<int>(cy < ty ? Dir::South : Dir::North);
    return;
  }
  // West-first: every west hop precedes any other turn (deadlock-free
  // per the turn model); once dx >= 0, adapt among the productive
  // directions.
  if (cx > tx) {
    out[count++] = static_cast<int>(Dir::West);
    return;
  }
  if (cx < tx) out[count++] = static_cast<int>(Dir::East);
  if (cy < ty) out[count++] = static_cast<int>(Dir::South);
  else if (cy > ty) out[count++] = static_cast<int>(Dir::North);
  HPCCSIM_ASSERT(count >= 1);
}

FlitNetwork::InjectHorizon FlitNetwork::inject_horizon() const {
  InjectHorizon h;
  h.first = kNever;
  h.second = kNever;
  h.node = -1;
  bool multi = false;
  for (std::size_t wi = 0; wi < whole_.inject.size(); ++wi) {
    std::uint64_t w = whole_.inject[wi];
    while (w) {
      const NodeId n =
          static_cast<NodeId>((wi << 6) + std::countr_zero(w));
      w &= w - 1;
      const auto& pend = inject_[static_cast<std::size_t>(n)].pending;
      const std::uint64_t c =
          messages_[static_cast<std::size_t>(pend.front())].inject_cycle;
      if (c < h.first) {
        h.first = c;
        h.node = n;
        multi = false;
      } else if (c == h.first) {
        multi = true;
      }
    }
  }
  if (multi) {
    h.node = -1;
    return h;
  }
  for (std::size_t wi = 0; wi < whole_.inject.size(); ++wi) {
    std::uint64_t w = whole_.inject[wi];
    while (w) {
      const NodeId n =
          static_cast<NodeId>((wi << 6) + std::countr_zero(w));
      w &= w - 1;
      const auto& pend = inject_[static_cast<std::size_t>(n)].pending;
      if (n == h.node) {
        if (pend.size() > 1)
          h.second = std::min(
              h.second,
              messages_[static_cast<std::size_t>(pend[1])].inject_cycle);
      } else {
        h.second = std::min(
            h.second,
            messages_[static_cast<std::size_t>(pend.front())].inject_cycle);
      }
    }
  }
  return h;
}

void FlitNetwork::throw_max_cycles(std::uint64_t max_cycles) const {
  const bool par = par_eligible();
  throw std::runtime_error(
      "FlitNetwork::run exceeded max_cycles=" + std::to_string(max_cycles) +
      " (cycle=" + std::to_string(cycle_) +
      ", in-flight flits=" + std::to_string(whole_.in_flight) +
      ", undelivered messages=" + std::to_string(whole_.undelivered) +
      ", threads=" + std::to_string(par ? threads_ : 1) +
      ", window=" + std::to_string(par ? window_cycles_ : 1) + ")");
}

void FlitNetwork::set_threads(int threads) {
  HPCCSIM_EXPECTS(threads >= 1);
  HPCCSIM_EXPECTS(threads <= 256);
  if (threads != threads_) {
    threads_ = threads;
    par_.reset();  // shard layout depends on the thread count
  }
}

void FlitNetwork::set_window(std::uint64_t cycles) {
  HPCCSIM_EXPECTS(cycles >= 1);
  window_cycles_ = cycles;
}

// Empty-network shortcut shared by run() and run_parallel(): skip idle
// windows and stream lone worms. Returns true if the fast-forward
// delivered a message (state advanced past the empty point); false if
// the caller must step normally (an injection is due now, or another
// message could contend with the lone worm).
bool FlitNetwork::try_empty_advance(std::uint64_t max_cycles) {
  // The network is empty: the next state change is an injection.
  const InjectHorizon h = inject_horizon();
  HPCCSIM_ASSERT(h.first != kNever);
  if (h.first > cycle_) {
    // Idle-cycle skip: every cycle in [cycle_, h.first) is a
    // provable no-op (empty network, nothing eligible to inject),
    // so jump the clock (docs/MODEL.md §10). Clamp to max_cycles
    // so the overflow throw fires exactly as under stepping.
    const std::uint64_t to = std::min(h.first, max_cycles);
    skipped_cycles_ += to - cycle_;
    cycle_ = to;
    if (cycle_ >= max_cycles) throw_max_cycles(max_cycles);
  }
  if (h.node >= 0) {
    // Wormhole fast-forward: a lone worm on an empty network
    // streams one flit per cycle with no allocation or credit
    // stalls (input buffers hold >= 2 flits), so its tail ejects
    // in cycle start + hops + flits, and the network is empty
    // again one cycle later. Safe only if no other message can
    // start injecting before that point.
    auto& st = inject_[static_cast<std::size_t>(h.node)];
    const std::int32_t m = st.pending.front();
    HPCCSIM_ASSERT(st.flits_sent == 0);
    const auto& msg = messages_[static_cast<std::size_t>(m)];
    const auto hops =
        static_cast<std::uint64_t>(mesh_.distance(msg.src, msg.dst));
    const auto nflits = static_cast<std::uint64_t>(flits_of(m));
    const std::uint64_t done = cycle_ + hops + nflits + 1;
    if (h.second >= done && done <= max_cycles) {
      auto& mm = messages_[static_cast<std::size_t>(m)];
      mm.delivered_cycle =
          done + static_cast<std::uint64_t>(params_.pipeline_cycles) * hops;
      mm.delivered = true;
      --whole_.undelivered;
      whole_.injected += nflits;
      whole_.ejected += nflits;
      whole_.link += nflits * hops;
      ffwd_flits_ += nflits;
      ++ffwd_messages_;
      st.pending.pop_front();
      if (st.pending.empty()) clear_local(whole_.inject, h.node);
      cycle_ = done;
      return true;
    }
  }
  return false;
}

void FlitNetwork::run(std::uint64_t max_cycles) {
  if (par_eligible()) {
    run_parallel(max_cycles);
    return;
  }
  while (whole_.undelivered > 0) {
    if (cycle_ >= max_cycles) throw_max_cycles(max_cycles);
    if (whole_.in_flight == 0 && try_empty_advance(max_cycles)) continue;
    step();
  }
}

void FlitNetwork::run_reference(std::uint64_t max_cycles) {
  while (whole_.undelivered > 0) {
    if (cycle_ >= max_cycles) throw_max_cycles(max_cycles);
    step_reference();
  }
}

void FlitNetwork::dump_counters(obs::Registry& reg) const {
  reg.counter("mesh.link.flits").set(static_cast<std::int64_t>(whole_.link));
  reg.counter("mesh.flit.injected")
      .set(static_cast<std::int64_t>(whole_.injected));
  reg.counter("mesh.flit.ejected")
      .set(static_cast<std::int64_t>(whole_.ejected));
  reg.counter("mesh.flit.cycles").set(static_cast<std::int64_t>(cycle_));
  reg.counter("mesh.flit.cycles_skipped")
      .set(static_cast<std::int64_t>(skipped_cycles_));
  reg.counter("mesh.flit.ffwd_messages")
      .set(static_cast<std::int64_t>(ffwd_messages_));
  reg.counter("mesh.flit.ffwd_flits")
      .set(static_cast<std::int64_t>(ffwd_flits_));
  reg.counter("mesh.flit.router_visits")
      .set(static_cast<std::int64_t>(whole_.visits));
  reg.counter("mesh.flit.shard.boundary_flits")
      .set(static_cast<std::int64_t>(whole_.boundary));
  reg.counter("mesh.flit.shard.barrier_waits")
      .set(static_cast<std::int64_t>(whole_.waits));
  reg.counter("mesh.flit.shard.windows")
      .set(static_cast<std::int64_t>(windows_));
}

sim::Time FlitNetwork::cycle_time() const {
  return sim::Time::sec(static_cast<double>(params_.flit_bytes) /
                        params_.channel_bw.bytes_per_sec());
}

std::uint64_t FlitNetwork::latency_cycles(std::size_t i) const {
  HPCCSIM_EXPECTS(i < messages_.size());
  const auto& m = messages_[i];
  HPCCSIM_EXPECTS(m.delivered);
  return m.delivered_cycle - m.inject_cycle;
}

std::optional<std::uint64_t> FlitNetwork::try_latency_cycles(
    std::size_t i) const {
  HPCCSIM_EXPECTS(i < messages_.size());
  const auto& m = messages_[i];
  if (!m.delivered) return std::nullopt;
  return m.delivered_cycle - m.inject_cycle;
}

}  // namespace hpccsim::mesh
