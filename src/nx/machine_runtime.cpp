#include "nx/machine_runtime.hpp"

#include <algorithm>
#include <sstream>

#include "nx/parallel_engine.hpp"

namespace hpccsim::nx {

NxMachine::NxMachine(proc::MachineConfig config, NetKind net)
    : config_(std::move(config)), node_state_(config_.node_count()) {
  switch (net) {
    case NetKind::AnalyticalMesh:
      net_ = std::make_unique<mesh::AnalyticalMeshNet>(config_.mesh(),
                                                       config_.net);
      break;
    case NetKind::Crossbar:
      net_ = std::make_unique<mesh::CrossbarNet>(
          config_.node_count(), config_.net.per_hop_latency,
          config_.net.channel_bw);
      break;
  }
  contexts_.reserve(static_cast<std::size_t>(config_.node_count()));
  for (int r = 0; r < config_.node_count(); ++r)
    contexts_.push_back(std::make_unique<NxContext>(*this, r));
}

void NxMachine::set_threads(int n) {
  HPCCSIM_EXPECTS(n >= 1);
  threads_ = n;
}

bool NxMachine::parallel_eligible() const {
  return threads_ > 1 && nodes() >= kParallelMinNodes &&
         !fault_injector_attached_ && !trace_writer_ &&
         config_.send_overhead > sim::Time::zero() &&
         net_->min_transfer_latency() > sim::Time::zero() &&
         engine_.next_event_time_ps() == sim::Engine::kNoPendingEvent;
}

sim::Time NxMachine::run(const Program& program) {
  if (parallel_eligible()) return run_parallel(program);
  const sim::Time start = engine_.now();
  for (int r = 0; r < nodes(); ++r)
    engine_.spawn(program(*contexts_[r]), "node" + std::to_string(r));
  engine_.run();
  return engine_.now() - start;
}

sim::Time NxMachine::run_parallel(const Program& program) {
  const sim::Time start = engine_.now();
  const ParRunTotals t = par::run_sharded(*this, threads_, program);
  par_.events += t.events;
  par_.calls_scheduled += t.calls_scheduled;
  par_.peak_queue_depth = std::max(par_.peak_queue_depth, t.peak_queue_depth);
  par_.call_slot_high_water =
      std::max(par_.call_slot_high_water, t.call_slot_high_water);
  par_.windows += t.windows;
  par_.intents += t.intents;
  par_.handoffs += t.handoffs;
  par_.window_skips += t.window_skips;
  par_.runs += t.runs;
  par_.bands = t.bands;
  return engine_.now() - start;
}

std::string NxMachine::message_trace_csv() const {
  std::ostringstream os;
  os << "depart_us,arrive_us,src,dst,tag,bytes\n";
  for (const auto& r : trace_) {
    os << r.depart.as_us() << ',' << r.arrive.as_us() << ',' << r.src << ','
       << r.dst << ',' << r.tag << ',' << r.bytes << '\n';
  }
  return os.str();
}

void NxMachine::set_trace_writer(obs::TraceWriter* trace) {
  trace_writer_ = trace;
  if (!trace_writer_) return;
  for (int r = 0; r < nodes(); ++r)
    trace_writer_->set_track_name(r, "rank " + std::to_string(r));
  trace_writer_->set_track_name(nodes(), "machine");
}

obs::Registry& NxMachine::snapshot_counters() {
  auto set = [this](std::string_view name, std::uint64_t v) {
    registry_.counter(name).set(static_cast<std::int64_t>(v));
  };

  // Parallel runs fold band-engine totals into the machine totals so the
  // event/call counts match what a sequential run would report (the same
  // events run, just on different engines). Peak depth and slot high
  // water are maxima over engines: partition-dependent diagnostics,
  // normalized away by the AXIS=threads determinism comparison.
  set("core.engine.events", engine_.events_processed() + par_.events);
  set("core.engine.calls_scheduled",
      engine_.calls_scheduled() + par_.calls_scheduled);
  set("core.engine.peak_queue_depth",
      std::max(engine_.peak_queue_depth(), par_.peak_queue_depth));
  set("core.engine.call_slot_high_water",
      std::max(engine_.call_slot_high_water(), par_.call_slot_high_water));
  if (par_.runs > 0) {
    // Shard diagnostics only exist once a parallel run happened, so a
    // sequential machine's dump is byte-identical to pre-parallel builds.
    set("engine.shard.bands", static_cast<std::uint64_t>(par_.bands));
    set("engine.shard.windows", par_.windows);
    set("engine.shard.intents", par_.intents);
    set("engine.shard.handoffs", par_.handoffs);
    set("engine.shard.window_skips", par_.window_skips);
    set("engine.shard.runs", par_.runs);
  }

  const NodeStats total = total_stats();
  set("nx.sends", total.sends);
  set("nx.recvs", total.recvs);
  set("nx.bytes_sent", total.bytes_sent);
  set("nx.flops_charged", total.flops_charged);
  set("nx.compute.ns", static_cast<std::uint64_t>(total.compute_time.as_ns()));
  set("nx.send_wait.ns", static_cast<std::uint64_t>(total.send_wait.as_ns()));
  set("nx.recv_wait.ns", static_cast<std::uint64_t>(total.recv_wait.as_ns()));
  set("nx.messages_dropped", messages_dropped_);
  set("proc.nodes", static_cast<std::uint64_t>(config_.node_count()));
  set("proc.nodes_down",
      static_cast<std::uint64_t>(node_state_.node_count() -
                                 node_state_.up_count()));

  if (const auto* m = dynamic_cast<const mesh::AnalyticalMeshNet*>(
          net_.get())) {
    set("mesh.messages", m->messages_routed());
    registry_.set_gauge("mesh.contention.us.mean",
                        m->contention_mean_us());
    registry_.set_gauge("mesh.contention.us.max",
                        m->contention_max_us());
  }
  return registry_;
}

NodeStats NxMachine::total_stats() const {
  NodeStats total;
  for (const auto& c : contexts_) {
    const NodeStats& s = c->stats();
    total.sends += s.sends;
    total.recvs += s.recvs;
    total.bytes_sent += s.bytes_sent;
    total.flops_charged += s.flops_charged;
    total.compute_time += s.compute_time;
    total.send_wait += s.send_wait;
    total.recv_wait += s.recv_wait;
  }
  return total;
}

}  // namespace hpccsim::nx
