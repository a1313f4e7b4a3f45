#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/rng.hpp"

namespace hpccsim::fault {

namespace {

// A repair that rounds to zero picoseconds would let a crash and its
// repair land at the same instant, which makes "was the node ever down"
// ambiguous for same-instant deliveries. Clamp to something physical.
constexpr double kMinRepairSec = 1e-3;

// Mean lifetime draw in seconds from a node's substream.
double draw_lifetime(Rng& rng, const FaultConfig& cfg) {
  const double mean = cfg.node_mtbf.as_sec();
  if (cfg.dist == Distribution::Exponential) {
    return rng.exponential(1.0 / mean);
  }
  // Scale so the Weibull mean equals the configured MTBF:
  // E[X] = scale * Gamma(1 + 1/shape).
  const double scale = mean / std::tgamma(1.0 + 1.0 / kWeibullShape);
  return rng.weibull(kWeibullShape, scale);
}

}  // namespace

const char* distribution_name(Distribution d) {
  switch (d) {
    case Distribution::Exponential: return "exponential";
    case Distribution::Weibull: return "weibull";
  }
  return "?";
}

std::vector<FaultEvent> generate_fault_trace(const FaultConfig& cfg,
                                             const mesh::Mesh2D& mesh) {
  std::vector<FaultEvent> out;
  if (cfg.node_mtbf <= sim::Time::zero()) return out;

  using Kind = FaultEvent::Kind;
  const double horizon = cfg.horizon.as_sec();
  for (std::int32_t r = 0; r < mesh.node_count(); ++r) {
    // Alternating crash/repair draws from the node's own substream.
    Rng rng = named_substream(cfg.seed, "fault.node",
                              static_cast<std::uint64_t>(r));
    double t = 0.0;
    for (;;) {
      t += draw_lifetime(rng, cfg);
      if (t >= horizon) break;
      const double repair = std::max(
          rng.exponential(1.0 / cfg.node_repair.as_sec()), kMinRepairSec);
      out.push_back({sim::Time::sec(t), Kind::NodeCrash, r});
      out.push_back({sim::Time::sec(t + repair), Kind::NodeRepair, r});
      t += repair;
    }
  }

  std::sort(out.begin(), out.end());
  return out;
}

FaultInjector::FaultInjector(nx::NxMachine& machine, const FaultConfig& cfg)
    : machine_(&machine),
      trace_(generate_fault_trace(cfg, machine.config().mesh())) {
  machine_->set_fault_injector_attached(true);
}

FaultInjector::~FaultInjector() {
  machine_->set_fault_injector_attached(false);
}

void FaultInjector::export_counters(obs::Registry& registry) const {
  registry.counter("fault.crashes").set(static_cast<std::int64_t>(crashes_));
  registry.counter("fault.repairs").set(static_cast<std::int64_t>(repairs_));
  registry.counter("fault.purged_messages")
      .set(static_cast<std::int64_t>(purged_));
  registry.counter("fault.trace_events")
      .set(static_cast<std::int64_t>(trace_.size()));
}

std::string FaultInjector::trace_csv() const {
  static constexpr const char* kKindNames[] = {"crash", "repair"};
  std::ostringstream os;
  os << "when_us,kind,a\n";
  for (const FaultEvent& ev : trace_) {
    const char* kind = kKindNames[static_cast<int>(ev.kind)];
    os << ev.when.as_us() << ',' << kind << ',' << ev.a << '\n';
  }
  return os.str();
}

void FaultInjector::set_trace(std::vector<FaultEvent> trace) {
  HPCCSIM_EXPECTS(!armed_);
  HPCCSIM_EXPECTS(std::is_sorted(trace.begin(), trace.end(),
                                 [](const FaultEvent& x, const FaultEvent& y) {
                                   return x.when < y.when;
                                 }));
  trace_ = std::move(trace);
}

void FaultInjector::arm() {
  HPCCSIM_EXPECTS(!armed_);
  armed_ = true;
  auto& eng = machine_->engine();
  for (const FaultEvent& ev : trace_) {
    eng.schedule_call(ev.when, [this, ev] { apply(ev); });
  }
}

void FaultInjector::add_crash_listener(
    std::function<void(std::int32_t)> fn) {
  crash_listeners_.push_back(std::move(fn));
}

void FaultInjector::apply(const FaultEvent& ev) {
  using Kind = FaultEvent::Kind;
  auto& state = machine_->node_state();
  const sim::Time now = machine_->engine().now();
  switch (ev.kind) {
    case Kind::NodeCrash: {
      if (disarmed_ || !state.up(ev.a)) return;
      state.set_down(ev.a);
      ++crashes_;
      if (obs::TraceWriter* tw = machine_->trace_writer())
        tw->instant(ev.a, "crash", "fault", now);
      // The node's memory is gone: undelivered messages with it.
      const std::size_t purged =
          machine_->context(ev.a).mailbox().drop_queued();
      purged_ += purged;
      for (std::size_t i = 0; i < purged; ++i)
        machine_->note_dropped_message();
      for (const auto& fn : crash_listeners_) fn(ev.a);
      return;
    }
    case Kind::NodeRepair: {
      // Repairs fire even when disarmed so wait_until_all_up never hangs.
      if (state.up(ev.a)) return;
      state.set_up(ev.a);
      ++repairs_;
      if (obs::TraceWriter* tw = machine_->trace_writer())
        tw->instant(ev.a, "repair", "fault", now);
      if (all_up_trigger_ && state.up_count() == state.node_count()) {
        all_up_trigger_->fire();
        all_up_trigger_.reset();
      }
      return;
    }
  }
}

sim::Task<> FaultInjector::wait_until_all_up() {
  auto& state = machine_->node_state();
  while (state.up_count() < state.node_count()) {
    if (!all_up_trigger_)
      all_up_trigger_ =
          std::make_unique<sim::Trigger>(machine_->engine());
    co_await all_up_trigger_->wait();
  }
}

}  // namespace hpccsim::fault
