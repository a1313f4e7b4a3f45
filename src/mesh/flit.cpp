#include "mesh/flit.hpp"

#include <algorithm>
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
  const std::int32_t w = mesh_.width();
  step_[static_cast<int>(Dir::East)] = 1;
  step_[static_cast<int>(Dir::West)] = -1;
  step_[static_cast<int>(Dir::North)] = -w;
  step_[static_cast<int>(Dir::South)] = w;
  const auto nodes = static_cast<std::size_t>(n_);
  buf_.resize(nodes * kPorts * static_cast<std::size_t>(cap_));
  ports_.resize(nodes * kPorts);
  router_flits_.assign(nodes, 0);
  xy_.reserve(nodes);
  for (NodeId n = 0; n < n_; ++n) xy_.push_back(mesh_.coord_of(n));
  whole_.hi = n_;
  whole_.active.assign((nodes + 63) / 64, 0);
  whole_.inject.assign(whole_.active.size(), 0);
  // Capacity for every source and for one arrival per port, so stepping
  // never grows either.
  whole_.waiting.reserve(nodes);
  whole_.staged.reserve(nodes * kPorts);
  sources_.resize(nodes);
}

std::size_t FlitNetwork::inject(NodeId src, NodeId dst, Bytes bytes,
                                std::uint64_t inject_cycle) {
  HPCCSIM_EXPECTS(src >= 0 && src < n_);
  HPCCSIM_EXPECTS(dst >= 0 && dst < n_);
  HPCCSIM_EXPECTS(src != dst);
  HPCCSIM_EXPECTS(bytes > 0);
  // The flit count (bytes + flit_bytes - 1) / flit_bytes must neither
  // wrap nor overflow the signed count phase 1 keeps.
  const Bytes fb = params_.flit_bytes;
  HPCCSIM_EXPECTS(bytes <= std::numeric_limits<Bytes>::max() - (fb - 1) &&
                  (bytes + fb - 1) / fb <= static_cast<Bytes>(
                      std::numeric_limits<std::int64_t>::max()));
  HPCCSIM_EXPECTS(messages_.size() < (std::size_t{1} << 30));  // fits a Flit
  const auto m = static_cast<std::int32_t>(messages_.size());
  messages_.push_back(FlitMessage{src, dst, bytes, inject_cycle, 0, false});
  next_.push_back(-1);
  Source& s = sources_[static_cast<std::size_t>(src)];
  if (s.head < 0) {
    s.head = m;
    wait_front(whole_, src);
  } else {
    next_[static_cast<std::size_t>(s.tail)] = m;
  }
  s.tail = m;
  ++whole_.undelivered;
  return messages_.size() - 1;
}

void FlitNetwork::wait_front(Band& b, NodeId n) {
  const std::int32_t m = sources_[static_cast<std::size_t>(n)].head;
  b.waiting.push_back(
      {messages_[static_cast<std::size_t>(m)].inject_cycle, n});
  std::push_heap(b.waiting.begin(), b.waiting.end(), later);
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

// With the network empty, no source is in the inject bitmap: a source
// there has staged a flit this cycle or holds a full local port, so it
// leaves one in flight (rebuild_bitmaps puts every source on the heap).
// Every pending source is therefore on the heap, whose root holds the
// earliest front message and whose root's children hold the next
// earliest of the other sources.
FlitNetwork::InjectHorizon FlitNetwork::inject_horizon() const {
  const std::vector<Waiting>& q = whole_.waiting;
  HPCCSIM_ASSERT(!q.empty());
  InjectHorizon h{q[0].cycle, q[0].node, kNever};
  for (std::size_t k = 1; k <= 2 && k < q.size(); ++k) {
    if (q[k].cycle == h.first) {
      h.node = -1;  // tied across nodes
      return h;
    }
    h.second = std::min(h.second, q[k].cycle);
  }
  if (h.node >= 0) {
    const std::int32_t m = sources_[static_cast<std::size_t>(h.node)].head;
    const std::int32_t after = next_[static_cast<std::size_t>(m)];
    if (after >= 0)
      h.second = std::min(
          h.second, messages_[static_cast<std::size_t>(after)].inject_cycle);
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
    Source& st = sources_[static_cast<std::size_t>(h.node)];
    const std::int32_t m = st.head;
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
      // The source leaves the heap root; its next message waits in turn.
      std::pop_heap(whole_.waiting.begin(), whole_.waiting.end(), later);
      whole_.waiting.pop_back();
      st.head = next_[static_cast<std::size_t>(m)];
      if (st.head >= 0) wait_front(whole_, h.node);
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
