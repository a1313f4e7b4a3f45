#include "wan/flow_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/assert.hpp"

namespace hpccsim::wan {
namespace {

// A completion event may land a whisper early from picosecond rounding
// of `remaining / rate`; anything below this many bytes counts as done
// (flows are whole bytes, so no real payload is ever this small).
constexpr double kEpsBytes = 1e-2;

// Rate changes below this relative threshold are absorbed rather than
// rescheduled, which keeps floating-point noise from rippling through
// the whole network.
constexpr double kRateEps = 1e-9;

}  // namespace

FlowEngine::FlowEngine(RouteTable& routes) : routes_(&routes) {
  const auto& links = routes.wan().links();
  link_flows_.resize(links.size());
  cap_.resize(links.size());
  rate_sum_.assign(links.size(), 0.0);
  expanded_.assign(links.size(), 0);
  link_bits_.assign((links.size() + 63) / 64, 0);
  residual_.assign(links.size(), 0.0);
  users_.assign(links.size(), 0);
  share_.assign(links.size(), 0.0);
  first_.assign(links.size(), 0);
  last_.assign(links.size(), 0);
  for (std::size_t l = 0; l < links.size(); ++l)
    cap_[l] = link_bandwidth(links[l].type).bytes_per_sec();
}

FlowEngine::FlowId FlowEngine::alloc_slot() {
  if (!free_.empty()) {
    const FlowId f = free_.back();
    free_.pop_back();
    has_event_[f] = 0;
    return f;
  }
  const FlowId f = static_cast<FlowId>(src_.size());
  src_.push_back(0);
  dst_.push_back(0);
  bytes_.push_back(0);
  remaining_.push_back(0.0);
  rate_.push_back(0.0);
  start_ps_.push_back(0);
  synced_ps_.push_back(0);
  gen_.push_back(0);
  tag_.push_back(0);
  route_.push_back(nullptr);
  hops_.emplace_back();
  link_pos_.emplace_back();
  flow_mark_.push_back(0);
  new_rate_.push_back(0.0);
  frozen_.push_back(0);
  has_event_.push_back(0);
  return f;
}

FlowEngine::FlowId FlowEngine::start(SiteId src, SiteId dst, Bytes bytes,
                                     std::uint64_t tag) {
  HPCCSIM_EXPECTS(bytes > 0);
  HPCCSIM_EXPECTS(src != dst);
  const RouteTable::Route* r = routes_->route(src, dst);
  if (r == nullptr)
    throw std::invalid_argument("flow endpoints are disconnected");

  const FlowId f = alloc_slot();
  src_[f] = src;
  dst_[f] = dst;
  bytes_[f] = bytes;
  remaining_[f] = static_cast<double>(bytes);
  rate_[f] = 0.0;
  start_ps_[f] = now_ps_;
  synced_ps_[f] = now_ps_;
  tag_[f] = tag;
  route_[f] = r;
  hops_[f] = r->links;
  link_pos_[f].assign(r->links.size(), 0);
  for (std::size_t i = 0; i < r->links.size(); ++i) {
    const std::int32_t l = r->links[i];
    link_pos_[f][i] = static_cast<std::int32_t>(link_flows_[l].size());
    link_flows_[l].push_back(LinkEntry{f, static_cast<std::int32_t>(i)});
  }

  ++active_count_;
  stats_.active_peak = std::max<std::int64_t>(stats_.active_peak,
                                              active_count_);
  ++stats_.started;

  bump_epoch();
  add_to_set(f);
  recompute();
  return f;
}

void FlowEngine::bump_epoch() {
  if (++epoch_ == 0) {
    // Epoch counter wrapped: stale marks could alias, so reset them.
    std::fill(flow_mark_.begin(), flow_mark_.end(), 0u);
    std::fill(expanded_.begin(), expanded_.end(), 0u);
    epoch_ = 1;
  }
}

bool FlowEngine::add_to_set(FlowId f) {
  if (flow_mark_[f] == epoch_) return false;
  flow_mark_[f] = epoch_;
  set_.push_back(f);
  for (const std::int32_t l : hops_[f])
    link_bits_[static_cast<std::size_t>(l) / 64] |= std::uint64_t{1}
                                                    << (l % 64);
  return true;
}

// A link's flow list cannot change inside one ripple: process() seeds
// the set and only then unlinks the departing flow (the `except` of its
// seeding), and a starved flow excepts itself while already in the set.
// So a second expansion of the same link adds nothing, and is skipped.
bool FlowEngine::add_link_flows(std::int32_t l, FlowId except) {
  if (expanded_[l] == epoch_) return false;
  expanded_[l] = epoch_;
  bool grew = false;
  for (const LinkEntry& e : link_flows_[l])
    if (e.flow != except) grew |= add_to_set(e.flow);
  return grew;
}

void FlowEngine::sync_remaining(FlowId f) {
  if (synced_ps_[f] != now_ps_) {
    remaining_[f] -= rate_[f] *
                     (static_cast<double>(now_ps_ - synced_ps_[f]) * 1e-12);
    if (remaining_[f] < 0.0) remaining_[f] = 0.0;
    synced_ps_[f] = now_ps_;
  }
}

void FlowEngine::schedule(FlowId f) {
  HPCCSIM_ASSERT(rate_[f] > 0.0);
  std::uint64_t dt_ps = 0;  // already-drained flows complete *now*
  if (remaining_[f] > kEpsBytes) {
    // Round up to a whole picosecond so `remaining` has hit ~zero when
    // the event fires (any shortfall is below kEpsBytes).
    const double dt_s = remaining_[f] / rate_[f];
    dt_ps = static_cast<std::uint64_t>(dt_s * 1e12) + 1;
  }
  const std::uint64_t when = now_ps_ + dt_ps;
  HPCCSIM_ASSERT(when >= now_ps_);  // overflow = simulated centuries
  ++gen_[f];
  has_event_[f] = 1;
  heap_.push(sim::detail::QEvent{when, seq_++, payload(f, gen_[f])});
}

// The saturation-gated ripple (see the header comment). `set_` arrives
// seeded by the caller; each pass water-fills the affected set against
// residual capacities, applies the rate changes, and expands the set
// through every link that was saturated before or after a change (an
// unsaturated link imposes no max-min constraint in either direction,
// so no change can propagate across it). Terminates because the set
// only grows; at the fixpoint every affected flow sits at its
// restricted max-min share and no constraint reaches outside the set.
void FlowEngine::recompute() {
  if (set_.empty()) return;
  constexpr double kNoUsers = std::numeric_limits<double>::infinity();
  for (;;) {
    ++stats_.recomputes;
    // Pinned tie-break: bottleneck candidates are examined in ascending
    // link index order, exactly like FlowSimulator::fair_rates.
    mlinks_.clear();
    for (std::size_t w = 0; w < link_bits_.size(); ++w)
      for (std::uint64_t b = link_bits_[w]; b != 0; b &= b - 1)
        mlinks_.push_back(
            static_cast<std::int32_t>(w * 64 + std::countr_zero(b)));

    // Residual capacity per member link with the affected flows' own
    // rates added back (they are being re-assigned); all other flows
    // stay fixed at their current rates inside rate_sum_.
    for (const std::int32_t l : mlinks_) {
      residual_[l] = cap_[l] - rate_sum_[l];
      users_[l] = 0;
    }
    for (const FlowId f : set_) {
      for (const std::int32_t l : hops_[f]) {
        residual_[l] += rate_[f];
        ++users_[l];
      }
    }
    // Each member link's flows, in set order, and its current share.
    std::int32_t n = 0;
    for (const std::int32_t l : mlinks_) {
      if (residual_[l] < 0.0) residual_[l] = 0.0;
      share_[l] = residual_[l] / users_[l];
      first_[l] = last_[l] = n;
      n += users_[l];
    }
    members_.resize(static_cast<std::size_t>(n));
    for (const FlowId f : set_) {
      frozen_[f] = 0;
      for (const std::int32_t l : hops_[f]) members_[last_[l]++] = f;
    }

    // Progressive water-filling restricted to the affected set. Freezing
    // the bottleneck's flows in its member order meets them in set
    // order, as a scan of the whole set would.
    std::size_t unfrozen = set_.size();
    while (unfrozen > 0) {
      double best_share = kNoUsers;
      std::int32_t best = -1;
      for (const std::int32_t l : mlinks_) {
        if (share_[l] < best_share) {
          best_share = share_[l];
          best = l;
        }
      }
      HPCCSIM_ASSERT(best >= 0);
      for (std::int32_t i = first_[best]; i < last_[best]; ++i) {
        const FlowId f = members_[i];
        if (frozen_[f]) continue;
        new_rate_[f] = best_share;
        frozen_[f] = 1;
        --unfrozen;
        for (const std::int32_t l : hops_[f]) {
          residual_[l] -= best_share;
          if (residual_[l] < 0.0) residual_[l] = 0.0;
          share_[l] = --users_[l] > 0 ? residual_[l] / users_[l] : kNoUsers;
        }
      }
    }

    // Apply. A flow with no pending completion event (fresh arrival)
    // must be applied even on a "no change" so it gets scheduled.
    changed_.clear();
    dirty_links_.clear();
    for (const FlowId f : set_) {
      const double old = rate_[f];
      const double nu = new_rate_[f];
      if (has_event_[f] && std::abs(nu - old) <= kRateEps * (old + 1.0))
        continue;
      sync_remaining(f);
      for (const std::int32_t l : hops_[f]) {
        // A link saturated *before* the change frees capacity when the
        // rate drops — its flows must be re-examined.
        if (saturated(l)) dirty_links_.push_back(l);
        rate_sum_[l] += nu - old;
      }
      rate_[f] = nu;
      if (nu > 0.0) {
        ++stats_.rate_updates;
        schedule(f);
        changed_.push_back(f);
      }
    }

    // Expand through constraining links; stop at the fixpoint.
    bool grew = false;
    for (const std::int32_t l : dirty_links_) grew |= add_link_flows(l, -1);
    for (const FlowId f : changed_)
      for (const std::int32_t l : hops_[f])
        if (saturated(l)) grew |= add_link_flows(l, -1);
    // A starved flow (zero share: it arrived on a fully-occupied link)
    // pulls in everyone it shares a link with so the next pass can
    // redistribute — max-min never leaves a flow at zero. Indexed loop:
    // add_link_flows appends to set_.
    const std::size_t set_size = set_.size();
    for (std::size_t i = 0; i < set_size; ++i) {
      const FlowId f = set_[i];
      if (rate_[f] > 0.0) continue;
      for (const std::int32_t l : hops_[f])
        grew |= add_link_flows(l, f);
    }
    if (!grew) break;
  }
  set_.clear();
  std::fill(link_bits_.begin(), link_bits_.end(), 0);
}

void FlowEngine::unlink(FlowId f) {
  const auto ls = hops_[f];
  for (std::size_t i = 0; i < ls.size(); ++i) {
    const std::int32_t l = ls[i];
    auto& lst = link_flows_[l];
    const auto p = static_cast<std::size_t>(link_pos_[f][i]);
    HPCCSIM_ASSERT(p < lst.size() && lst[p].flow == f);
    const LinkEntry moved = lst.back();
    lst.pop_back();
    if (p < lst.size()) {
      lst[p] = moved;
      link_pos_[moved.flow][moved.hop] = static_cast<std::int32_t>(p);
    }
    rate_sum_[l] -= rate_[f];
    if (lst.empty()) rate_sum_[l] = 0.0;  // shed accumulated fp drift
  }
}

void FlowEngine::process(std::uint64_t until_ps,
                         const CompletionFn& on_complete) {
  while (!heap_.empty() && heap_.top().when <= until_ps) {
    const sim::detail::QEvent ev = heap_.pop();
    const auto f = static_cast<FlowId>(ev.payload & 0xffffffffu);
    const auto g = static_cast<std::uint32_t>(ev.payload >> 32);
    if (gen_[f] != g) {
      ++stats_.stale_events;
      continue;
    }
    HPCCSIM_ASSERT(ev.when >= now_ps_);
    now_ps_ = ev.when;
    sync_remaining(f);
    if (remaining_[f] > kEpsBytes) {
      schedule(f);  // picosecond rounding left a sliver; finish it
      continue;
    }

    const Completion c{f,
                       src_[f],
                       dst_[f],
                       bytes_[f],
                       sim::Time::ps(start_ps_[f]),
                       sim::Time::ps(ev.when),
                       route_[f]->bottleneck_bps,
                       tag_[f]};
    ++gen_[f];  // invalidate any remaining heap entries for this slot
    bump_epoch();
    // Seed the ripple with everyone sharing a constraining link with
    // the departing flow, then take the flow out of the network.
    for (const std::int32_t l : hops_[f])
      if (saturated(l)) add_link_flows(l, f);
    unlink(f);
    route_[f] = nullptr;
    free_.push_back(f);
    --active_count_;
    ++stats_.completed;
    recompute();
    if (on_complete) on_complete(c);
  }
}

void FlowEngine::run_until(sim::Time t, const CompletionFn& on_complete) {
  process(t.picoseconds(), on_complete);
  now_ps_ = std::max(now_ps_, t.picoseconds());
}

void FlowEngine::run_to_completion(const CompletionFn& on_complete) {
  process(std::numeric_limits<std::uint64_t>::max(), on_complete);
  HPCCSIM_ENSURES(active_count_ == 0);
}

}  // namespace hpccsim::wan
