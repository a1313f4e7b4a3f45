#include "grid/grid_sim.hpp"

#include <string>

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace hpccsim::grid {

GridSimulator::GridSimulator(const Federation& fed, Placement policy)
    : fed_(&fed),
      policy_(policy),
      catalog_(fed.wan().site_count()),
      routes_(fed.wan()),
      engine_(routes_),
      inflight_(fed.wan().site_count()) {
  const auto n = static_cast<std::size_t>(fed.wan().site_count());
  ingress_.assign(n, 0);
  egress_.assign(n, 0);
  egress_backlog_s_.assign(n, 0.0);
  cache_used_.assign(n, 0);
}

void GridSimulator::on_complete(const wan::FlowEngine::Completion& c) {
  const auto d = static_cast<DatasetId>(c.tag);
  HPCCSIM_ASSERT(inflight_.test(d, c.dst));
  inflight_.reset(d, c.dst);

  ++stats_.flows_completed;
  stats_.bytes_moved += c.bytes;
  const double idle_s =
      static_cast<double>(c.bytes) / c.bottleneck_bps;
  stats_.slowdown_sum += (c.finish - c.start).as_sec() / idle_s;
  ingress_[static_cast<std::size_t>(c.dst)] += c.bytes;
  egress_[static_cast<std::size_t>(c.src)] += c.bytes;

  // Cache-on-read at the destination, capacity permitting.
  const GridSite* info = fed_->site_info(c.dst);
  HPCCSIM_ASSERT(info != nullptr);
  auto& used = cache_used_[static_cast<std::size_t>(c.dst)];
  if (used + c.bytes <= info->storage_capacity) {
    used += c.bytes;
    catalog_.add_replica(d, c.dst);
    ++stats_.cache_fills;
  } else {
    ++stats_.cache_rejected;
  }
}

void GridSimulator::run(WorkloadGenerator& workload) {
  HPCCSIM_EXPECTS(!ran_);
  ran_ = true;

  // Register the dataset universe: one initial replica on the archive
  // of the region the workload placed it in.
  for (DatasetId d = 0; d < workload.dataset_count(); ++d)
    catalog_.add_dataset(workload.dataset_bytes(d),
                         fed_->archive_of(workload.initial_region(d)));
  inflight_.add_rows(static_cast<std::size_t>(workload.dataset_count()));

  const auto cb = [this](const wan::FlowEngine::Completion& c) {
    on_complete(c);
  };
  while (const auto q = workload.next()) {
    ++stats_.requests;
    engine_.run_until(q->at, cb);
    if (catalog_.has_replica(q->dataset, q->dst)) {
      ++stats_.cache_hits;
      continue;
    }
    if (inflight_.test(q->dataset, q->dst)) {
      ++stats_.coalesced;  // join the in-flight transfer
      continue;
    }
    const SiteId src = catalog_.select_source(q->dataset, q->dst, policy_,
                                              routes_, egress_backlog_s_);
    if (src < 0) {
      ++stats_.unroutable;
      continue;
    }
    inflight_.set(q->dataset, q->dst);
    const GridSite* src_info = fed_->site_info(src);
    HPCCSIM_ASSERT(src_info != nullptr);
    egress_backlog_s_[static_cast<std::size_t>(src)] +=
        static_cast<double>(catalog_.size(q->dataset)) /
        src_info->access_bps;
    engine_.start(src, q->dst, catalog_.size(q->dataset),
                  static_cast<std::uint64_t>(q->dataset));
  }
  engine_.run_to_completion(cb);
  HPCCSIM_ENSURES(inflight_.none());
}

void GridSimulator::export_counters(obs::Registry& reg) const {
  reg.counter("grid.requests").set(stats_.requests);
  reg.counter("grid.cache.hits").set(stats_.cache_hits);
  reg.counter("grid.cache.fills").set(stats_.cache_fills);
  reg.counter("grid.cache.rejected").set(stats_.cache_rejected);
  reg.counter("grid.coalesced").set(stats_.coalesced);
  reg.counter("grid.unroutable").set(stats_.unroutable);
  reg.counter("grid.flows.completed").set(stats_.flows_completed);
  reg.counter("grid.bytes_moved")
      .set(static_cast<std::int64_t>(stats_.bytes_moved));

  const auto& es = engine_.stats();
  reg.counter("grid.flow.active_peak").set(es.active_peak);
  reg.counter("grid.flow.recomputes").set(es.recomputes);
  reg.counter("grid.flow.rate_updates").set(es.rate_updates);
  reg.counter("grid.flow.stale_events").set(es.stale_events);

  const auto site_counters = [&](const GridSite& g) {
    const std::string base =
        "grid.site." + fed_->wan().site_name(g.site);
    reg.counter(base + ".ingress_bytes")
        .set(static_cast<std::int64_t>(
            ingress_[static_cast<std::size_t>(g.site)]));
    reg.counter(base + ".egress_bytes")
        .set(static_cast<std::int64_t>(
            egress_[static_cast<std::size_t>(g.site)]));
  };
  for (const GridSite& g : fed_->archives()) site_counters(g);
  for (const GridSite& g : fed_->leaves()) site_counters(g);
}

}  // namespace hpccsim::grid
