// Incremental event-driven fluid flow engine.
//
// The prototype fluid model (FlowSimulator::run_reference) recomputes
// *every* flow's max-min rate at *every* arrival/completion — O(F·L)
// per event, quadratic overall, unusable past ~10k concurrent flows.
// This engine is the scalable rebuild behind the same fluid semantics:
//
//  - **Completion-time heap.** Pending completions live in a
//    `sim::detail::EventQueue`, the engine's 4-ary min-heap on
//    (when, seq) (core/event_queue.hpp). Rate changes *reschedule* a
//    flow by bumping its generation counter; stale heap entries are
//    skipped on pop.
//  - **Link → active-flow index.** Each link keeps the list of flows
//    crossing it (swap-remove, positions mirrored per flow), so an
//    event can reach exactly the flows it may affect.
//  - **Saturation-gated ripple recompute.** An arrival/completion
//    re-rates only the affected set: seeded from the trigger flow's
//    links, expanded through *saturated* links only (an unsaturated
//    link imposes no max-min constraint, so rate changes cannot
//    propagate across it), until a fixpoint. Per-event cost is
//    proportional to the affected neighbourhood, not the flow count.
//    A link's flow list cannot change inside one ripple, so each link
//    is expanded at most once per event.
//  - **Per-link member lists in the water-fill.** Each pass lists the
//    affected flows per member link (one flat CSR array, in set order)
//    and caches each member link's share (residual / users). A round
//    scans the cached shares for the bottleneck and freezes only that
//    link's unfrozen flows, re-dividing just the links a freeze
//    touched. Member links live in a link bitset, read back in
//    ascending order, so no pass sorts.
//  - **Preallocated SoA slots.** Flow state is struct-of-arrays,
//    recycled through a free list; each slot holds its route links as
//    a flat span, and per-slot vectors keep their capacity, so steady
//    state allocates nothing.
//
// Rates follow the same progressive water-filling as
// FlowSimulator::fair_rates, with the same pinned tie-break (ascending
// link index, strict `<`; see docs/MODEL.md §12), restricted to the
// affected set against residual capacities. A round freezes the same
// flows in the same set order as a full scan would, so every residual
// subtraction happens in the same order and rates are bit-identical.
// tests/wan_test.cpp cross-checks the engine against the retained
// full-recompute reference on randomized scenarios.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/event_queue.hpp"
#include "core/time.hpp"
#include "util/units.hpp"
#include "wan/wan.hpp"

namespace hpccsim::wan {

class FlowEngine {
 public:
  using FlowId = std::int32_t;

  /// Everything a consumer needs about a finished flow, by value (the
  /// slot may be recycled by the time the callback runs).
  struct Completion {
    FlowId id = -1;
    SiteId src = 0;
    SiteId dst = 0;
    Bytes bytes = 0;
    sim::Time start;
    sim::Time finish;
    double bottleneck_bps = 0.0;  ///< idle-network rate of the route
    std::uint64_t tag = 0;        ///< caller's tag from start()
  };

  struct Stats {
    std::int64_t started = 0;
    std::int64_t completed = 0;
    std::int64_t recomputes = 0;     ///< restricted water-fill passes
    std::int64_t rate_updates = 0;   ///< per-flow rate changes applied
    std::int64_t stale_events = 0;   ///< superseded heap entries skipped
    std::int64_t active_peak = 0;    ///< max concurrent flows
  };

  explicit FlowEngine(RouteTable& routes);

  sim::Time now() const { return sim::Time::ps(now_ps_); }
  std::int32_t active() const { return active_count_; }
  const Stats& stats() const { return stats_; }

  /// Start a flow at the current time, routed on its cached widest
  /// path. Throws std::invalid_argument if src and dst are
  /// disconnected; ContractError on bytes == 0 or src == dst.
  FlowId start(SiteId src, SiteId dst, Bytes bytes, std::uint64_t tag = 0);

  /// Current max-min rate of an active flow (bytes/s).
  double rate_bps(FlowId f) const { return rate_[f]; }

  using CompletionFn = std::function<void(const Completion&)>;

  /// Advance to `t`, delivering every completion with finish <= t in
  /// (time, schedule-order) order. The callback may call start().
  void run_until(sim::Time t, const CompletionFn& on_complete);

  /// Drain every active flow to completion; now() ends at the last
  /// completion time.
  void run_to_completion(const CompletionFn& on_complete);

 private:
  struct LinkEntry {
    FlowId flow;
    std::int32_t hop;  ///< index into the flow's route links
  };

  static std::uintptr_t payload(FlowId f, std::uint32_t gen) {
    return (static_cast<std::uintptr_t>(gen) << 32) |
           static_cast<std::uint32_t>(f);
  }

  FlowId alloc_slot();
  void unlink(FlowId f);
  void schedule(FlowId f);
  void sync_remaining(FlowId f);
  bool saturated(std::int32_t l) const {
    return rate_sum_[l] >= cap_[l] * (1.0 - 1e-6);
  }
  void bump_epoch();
  bool add_to_set(FlowId f);
  bool add_link_flows(std::int32_t l, FlowId except);
  void recompute();
  void process(std::uint64_t until_ps, const CompletionFn& on_complete);

  RouteTable* routes_;

  // Per-flow slot storage (SoA; slots recycled through free_).
  std::vector<SiteId> src_, dst_;
  std::vector<Bytes> bytes_;
  std::vector<double> remaining_;             // bytes left, as of synced_ps_
  std::vector<double> rate_;                  // current max-min rate, B/s
  std::vector<std::uint64_t> start_ps_, synced_ps_;
  std::vector<std::uint32_t> gen_;            // invalidates stale heap entries
  std::vector<std::uint64_t> tag_;
  std::vector<const RouteTable::Route*> route_;
  std::vector<std::span<const std::int32_t>> hops_;  // route_[f]->links
  std::vector<std::vector<std::int32_t>> link_pos_;  // position per hop
  std::vector<std::uint8_t> has_event_;  // flow has a live heap entry
  std::vector<FlowId> free_;

  // Per-link state.
  std::vector<std::vector<LinkEntry>> link_flows_;
  std::vector<double> cap_;       // bytes/s
  std::vector<double> rate_sum_;  // sum of active rates on the link

  // Recompute scratch (epoch-stamped membership; zero steady-state
  // allocation once warm).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> flow_mark_;   // per slot: in the set
  std::vector<std::uint32_t> expanded_;    // per link: flows added
  std::vector<std::uint64_t> link_bits_;   // member links, one bit each
  std::vector<FlowId> set_;                // affected set, insertion order
  std::vector<std::int32_t> mlinks_;       // member links, ascending
  std::vector<double> new_rate_;           // per slot
  std::vector<std::uint8_t> frozen_;       // per slot
  std::vector<double> residual_;           // per link
  std::vector<std::int32_t> users_;        // per link: unfrozen flows
  std::vector<double> share_;              // per link: residual / users
  std::vector<std::int32_t> first_, last_; // per link: span of members_
  std::vector<FlowId> members_;            // set flows per link (CSR)
  std::vector<FlowId> changed_;
  std::vector<std::int32_t> dirty_links_;  // saturated before a change

  sim::detail::EventQueue heap_;
  std::uint64_t seq_ = 0;
  std::uint64_t now_ps_ = 0;
  std::int32_t active_count_ = 0;
  Stats stats_;
};

}  // namespace hpccsim::wan
