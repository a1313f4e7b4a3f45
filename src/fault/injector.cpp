#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "mesh/analytical.hpp"

namespace hpccsim::fault {

namespace {

// A repair that rounds to zero picoseconds would let a crash and its
// repair land at the same instant, which makes "was the node ever down"
// ambiguous for same-instant deliveries. Clamp to something physical.
constexpr double kMinRepairSec = 1e-3;

// Mean lifetime draw in seconds from a component's substream.
double draw_lifetime(Rng& rng, const FaultConfig& cfg, sim::Time mtbf) {
  const double mean = mtbf.as_sec();
  if (cfg.dist == Distribution::Exponential) {
    return rng.exponential(1.0 / mean);
  }
  // Scale so the Weibull mean equals the configured MTBF:
  // E[X] = scale * Gamma(1 + 1/shape).
  const double shape = cfg.weibull_shape;
  const double scale = mean / std::tgamma(1.0 + 1.0 / shape);
  return rng.weibull(shape, scale);
}

// Generate alternating fail/repair events for one component.
template <class Push>
void component_schedule(Rng rng, const FaultConfig& cfg, sim::Time mtbf,
                        sim::Time mean_repair, Push push) {
  double t = 0.0;
  const double horizon = cfg.horizon.as_sec();
  for (;;) {
    t += draw_lifetime(rng, cfg, mtbf);
    if (t >= horizon) break;
    const double repair = std::max(
        rng.exponential(1.0 / mean_repair.as_sec()), kMinRepairSec);
    push(sim::Time::sec(t), sim::Time::sec(t + repair));
    t += repair;
  }
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
  using Kind = FaultEvent::Kind;

  if (cfg.node_mtbf > sim::Time::zero()) {
    for (std::int32_t r = 0; r < mesh.node_count(); ++r) {
      component_schedule(
          named_substream(cfg.seed, "fault.node",
                          static_cast<std::uint64_t>(r)),
          cfg, cfg.node_mtbf, cfg.node_repair,
          [&](sim::Time down, sim::Time up) {
            out.push_back({down, Kind::NodeCrash, r, 0});
            out.push_back({up, Kind::NodeRepair, r, 0});
          });
    }
  }

  if (cfg.link_mtbf > sim::Time::zero()) {
    for (std::int32_t n = 0; n < mesh.node_count(); ++n) {
      for (const mesh::Dir d : mesh::kAllDirs) {
        if (mesh.neighbour(n, d) < 0) continue;  // edge of the mesh
        const auto link = static_cast<std::uint64_t>(mesh.link(n, d));
        component_schedule(
            named_substream(cfg.seed, "fault.link", link), cfg,
            cfg.link_mtbf, cfg.link_repair,
            [&](sim::Time down, sim::Time up) {
              const auto dir = static_cast<std::int32_t>(d);
              out.push_back({down, Kind::LinkFail, n, dir});
              out.push_back({up, Kind::LinkRepair, n, dir});
            });
      }
    }
  }

  std::sort(out.begin(), out.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              return std::tuple(x.when.picoseconds(),
                                static_cast<int>(x.kind), x.a, x.b) <
                     std::tuple(y.when.picoseconds(),
                                static_cast<int>(y.kind), y.a, y.b);
            });
  return out;
}

FaultInjector::FaultInjector(nx::NxMachine& machine, FaultConfig cfg)
    : machine_(&machine),
      cfg_(cfg),
      trace_(generate_fault_trace(cfg, machine.config().mesh())),
      drop_rng_(named_substream(cfg.seed, "fault.drop")) {
  machine_->set_fault_hooks(this);
}

FaultInjector::~FaultInjector() {
  if (machine_->fault_hooks() == this) machine_->set_fault_hooks(nullptr);
}

void FaultInjector::export_counters(obs::Registry& registry) const {
  registry.counter("fault.crashes").set(static_cast<std::int64_t>(crashes_));
  registry.counter("fault.repairs").set(static_cast<std::int64_t>(repairs_));
  registry.counter("fault.link_failures")
      .set(static_cast<std::int64_t>(link_failures_));
  registry.counter("fault.drops").set(static_cast<std::int64_t>(drops_));
  registry.counter("fault.purged_messages")
      .set(static_cast<std::int64_t>(purged_));
  registry.counter("fault.trace_events")
      .set(static_cast<std::int64_t>(trace_.size()));
}

std::string FaultInjector::trace_csv() const {
  static constexpr const char* kKindNames[] = {"crash", "repair",
                                               "link_fail", "link_repair"};
  std::ostringstream os;
  os << "when_us,kind,a,b\n";
  for (const FaultEvent& ev : trace_) {
    os << ev.when.as_us() << ','
       << kKindNames[static_cast<int>(ev.kind)] << ',' << ev.a << ','
       << ev.b << '\n';
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
    case Kind::LinkFail:
    case Kind::LinkRepair: {
      const bool fail = ev.kind == Kind::LinkFail;
      if (fail && disarmed_) return;
      auto* net =
          dynamic_cast<mesh::AnalyticalMeshNet*>(&machine_->network());
      if (!net) return;  // crossbar ablation: links don't exist
      net->set_link_failed(ev.a, static_cast<mesh::Dir>(ev.b), fail);
      if (fail) ++link_failures_;
      if (obs::TraceWriter* tw = machine_->trace_writer())
        tw->instant(machine_->nodes(),
                    std::string(fail ? "link fail " : "link repair ") +
                        std::to_string(ev.a) + " dir" + std::to_string(ev.b),
                    "fault", now);
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

bool FaultInjector::drop_message(int /*src*/, int /*dst*/, int tag,
                                 Bytes /*bytes*/, sim::Time /*depart*/) {
  if (cfg_.drop_rate <= 0.0 || disarmed_) return false;
  // The fault-tolerance protocol itself rides an acked transport.
  if (tag >= nx::kFaultProtocolTagBase) return false;
  if (drop_rng_.uniform() >= cfg_.drop_rate) return false;
  ++drops_;
  return true;
}

}  // namespace hpccsim::fault
