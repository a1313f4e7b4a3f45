#include "wan/flows.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/assert.hpp"
#include "wan/flow_engine.hpp"

namespace hpccsim::wan {

FlowSimulator::FlowSimulator(const Wan& wan) : routes_(wan) {}

std::size_t FlowSimulator::add_flow(SiteId src, SiteId dst, Bytes bytes,
                                    sim::Time start) {
  HPCCSIM_EXPECTS(!ran_);  // single-shot: no late arrivals after run()
  HPCCSIM_EXPECTS(bytes > 0);
  const RouteTable::Route* r = routes_.route(src, dst);
  if (r == nullptr)
    throw std::invalid_argument("flow endpoints are disconnected");
  flows_.push_back(Flow{src, dst, bytes, start, {}, false, 0.0});
  route_.push_back(r);
  return flows_.size() - 1;
}

std::vector<double> FlowSimulator::fair_rates(
    const std::vector<std::size_t>& active,
    std::vector<std::size_t>* bottleneck_order) const {
  // Progressive water-filling: repeatedly find the most-constrained link
  // (smallest equal share among its unfrozen flows), freeze those flows
  // at that share, subtract, repeat. Ties on the smallest share resolve
  // to the lowest link index (the strict `<` below scans links in
  // ascending index order) — see the header for why the order is pinned.
  std::vector<double> rate(flows_.size(), 0.0);
  const auto& links = routes_.wan().links();
  std::vector<double> cap(links.size());
  for (std::size_t l = 0; l < cap.size(); ++l)
    cap[l] = link_bandwidth(links[l].type).bytes_per_sec();
  if (bottleneck_order) bottleneck_order->clear();

  std::vector<bool> frozen(flows_.size(), true);
  for (const std::size_t f : active) frozen[f] = false;

  for (;;) {
    // Count unfrozen flows per link.
    std::vector<int> users(cap.size(), 0);
    for (const std::size_t f : active)
      if (!frozen[f])
        for (const std::int32_t l : route_[f]->links) ++users[l];

    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = cap.size();
    for (std::size_t l = 0; l < cap.size(); ++l) {
      if (users[l] == 0) continue;
      const double share = cap[l] / users[l];
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    if (best_link == cap.size()) break;  // everyone frozen
    if (bottleneck_order) bottleneck_order->push_back(best_link);

    // Freeze the bottleneck link's flows at the fair share.
    const auto best = static_cast<std::int32_t>(best_link);
    for (const std::size_t f : active) {
      if (frozen[f]) continue;
      const auto& ls = route_[f]->links;
      if (std::find(ls.begin(), ls.end(), best) == ls.end()) continue;
      rate[f] = best_share;
      frozen[f] = true;
      for (const std::int32_t l : ls)
        cap[l] = std::max(0.0, cap[l] - best_share);
    }
  }
  return rate;
}

void FlowSimulator::finish_flow(std::size_t f, sim::Time finish) {
  Flow& fl = flows_[f];
  fl.done = true;
  fl.finish = finish;
  // Idle-network fluid duration: bytes / route bottleneck.
  const double idle_s =
      static_cast<double>(fl.bytes) / route_[f]->bottleneck_bps;
  fl.slowdown = (fl.finish - fl.start).as_sec() / idle_s;
}

void FlowSimulator::run() {
  HPCCSIM_EXPECTS(!ran_);
  ran_ = true;

  // Feed flows in (start, index) order; the engine delivers completions
  // as simulated time advances past each arrival.
  std::vector<std::size_t> order(flows_.size());
  for (std::size_t f = 0; f < order.size(); ++f) order[f] = f;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return flows_[a].start < flows_[b].start;
                   });

  FlowEngine engine(routes_);
  const auto on_complete = [this](const FlowEngine::Completion& c) {
    finish_flow(static_cast<std::size_t>(c.tag), c.finish);
  };
  for (const std::size_t f : order) {
    engine.run_until(flows_[f].start, on_complete);
    engine.start(flows_[f].src, flows_[f].dst, flows_[f].bytes, f);
  }
  engine.run_to_completion(on_complete);
}

void FlowSimulator::run_reference() {
  HPCCSIM_EXPECTS(!ran_);
  ran_ = true;
  const double kEps = 1e-6;  // bytes
  std::vector<double> remaining(flows_.size());
  for (std::size_t f = 0; f < flows_.size(); ++f)
    remaining[f] = static_cast<double>(flows_[f].bytes);

  // Pending starts, earliest first.
  std::vector<std::size_t> pending(flows_.size());
  for (std::size_t f = 0; f < pending.size(); ++f) pending[f] = f;
  std::sort(pending.begin(), pending.end(),
            [this](std::size_t a, std::size_t b) {
              return flows_[a].start < flows_[b].start;
            });
  std::size_t next_pending = 0;
  std::vector<std::size_t> active;
  double now_s = 0.0;

  while (next_pending < pending.size() || !active.empty()) {
    // Admit flows that start now.
    while (next_pending < pending.size() &&
           flows_[pending[next_pending]].start.as_sec() <= now_s + 1e-15) {
      active.push_back(pending[next_pending]);
      ++next_pending;
    }
    const std::vector<double> rate = fair_rates(active);

    // Time to the next event: a pending start or the first completion.
    double dt = std::numeric_limits<double>::infinity();
    if (next_pending < pending.size())
      dt = flows_[pending[next_pending]].start.as_sec() - now_s;
    for (const std::size_t f : active) {
      HPCCSIM_ASSERT(rate[f] > 0.0);
      dt = std::min(dt, remaining[f] / rate[f]);
    }
    HPCCSIM_ASSERT(dt >= 0.0 &&
                   dt < std::numeric_limits<double>::infinity());

    // Advance the fluid.
    now_s += dt;
    for (const std::size_t f : active) remaining[f] -= rate[f] * dt;

    // Retire completed flows.
    std::vector<std::size_t> still;
    for (const std::size_t f : active) {
      if (remaining[f] <= kEps) {
        finish_flow(f, sim::Time::sec(now_s));
      } else {
        still.push_back(f);
      }
    }
    active = std::move(still);
  }
}

}  // namespace hpccsim::wan
