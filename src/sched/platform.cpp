#include "sched/platform.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "fault/injector.hpp"
#include "fault/stats.hpp"
#include "util/assert.hpp"

namespace hpccsim::sched {

namespace {

/// Per-job checkpoint intervals clamp here (tiny debug jobs would
/// otherwise checkpoint absurdly often).
constexpr sim::Time kMinCkptInterval = sim::Time::sec(120.0);
/// Bounded-slowdown threshold (the classic 10-minute bound).
constexpr sim::Time kSlowdownBound = sim::Time::sec(600.0);

bool fits_empty(const mesh::Mesh2D& mesh, std::int32_t w, std::int32_t h) {
  return (w <= mesh.width() && h <= mesh.height()) ||
         (h <= mesh.width() && w <= mesh.height());
}

}  // namespace

const char* policy_name(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::FCFS: return "fcfs";
    case SchedulePolicy::EasyBackfill: return "easy-backfill";
  }
  return "?";
}

const char* strategy_name(CheckpointStrategy s) {
  switch (s) {
    case CheckpointStrategy::Uncoordinated: return "uncoordinated";
    case CheckpointStrategy::FifoCooperative: return "fifo-coop";
    case CheckpointStrategy::OrderedCooperative: return "ordered-coop";
  }
  return "?";
}

bool PlatformResult::balanced(double tol) const {
  const double sum = useful_node_seconds + ckpt_node_seconds +
                     ckpt_aborted_node_seconds + lost_node_seconds +
                     restore_node_seconds;
  const double scale = std::max(1.0, busy_node_seconds);
  return std::abs(busy_node_seconds - sum) <= tol * scale;
}

PlatformSimulator::PlatformSimulator(mesh::Mesh2D mesh, PlatformConfig cfg)
    : mesh_(mesh),
      cfg_(cfg),
      alloc_(mesh),
      io_bw_(io::effective_cfs_bandwidth(io::CfsConfig{}, cfg.io_disks)),
      io_(engine_, io_bw_) {}

void PlatformSimulator::submit(std::vector<PlatformJob> jobs) {
  HPCCSIM_EXPECTS(!ran_);
  const double bw = io_bw_.bytes_per_sec();
  for (PlatformJob& spec : jobs) {
    HPCCSIM_EXPECTS(spec.width >= 1 && spec.height >= 1);
    // A rectangle must fit the empty mesh in one orientation, and a
    // node-count request needs one factorization that does, or the job
    // could never start (517 = 11 x 47 nodes never fits a 33 x 16 mesh).
    bool fits = fits_empty(mesh_, spec.width, spec.height);
    if (spec.any_shape)
      for (const auto& [w, h] : candidate_shapes(spec.nodes()))
        fits = fits || fits_empty(mesh_, w, h);
    HPCCSIM_EXPECTS(fits);
    HPCCSIM_EXPECTS(spec.work > sim::Time::zero());
    HPCCSIM_EXPECTS(spec.ckpt_bytes_per_node > 0);
    if (spec.estimate < spec.work) spec.estimate = spec.work;
    JobState st;
    st.spec = std::move(spec);
    if (cfg_.node_mtbf > sim::Time::zero()) {
      // Per-job Daly interval from its own write cost (at the full
      // aggregate rate — interference is what the simulation measures,
      // not what the job plans for) and partition-level MTBF.
      const sim::Time cost =
          sim::Time::sec(static_cast<double>(ckpt_bytes(st)) / bw);
      const sim::Time mtbf =
          sim::Time::sec(cfg_.node_mtbf.as_sec() / st.spec.nodes());
      st.interval =
          std::max(fault::daly_interval(cost, mtbf), kMinCkptInterval);
    }
    jobs_.push_back(std::move(st));
  }
}

bool PlatformSimulator::try_start(std::size_t idx) {
  JobState& j = jobs_[idx];
  const auto pid = j.spec.any_shape
                       ? alloc_.allocate_nodes(j.spec.nodes())
                       : alloc_.allocate(j.spec.width, j.spec.height);
  if (!pid) return false;
  j.pid = *pid;
  j.start = engine_.now();
  res_.wait_minutes.add((j.start - j.spec.submit).as_sec() / 60.0);
  begin_segment(idx);
  return true;
}

void PlatformSimulator::begin_segment(std::size_t idx) {
  JobState& j = jobs_[idx];
  j.phase = Phase::Computing;
  j.segment_start = engine_.now();
  ++j.incarnation;
  const sim::Time remaining = j.spec.work - j.committed;
  const bool will_ckpt =
      j.interval > sim::Time::zero() && remaining > j.interval;
  const sim::Time at = j.segment_start + (will_ckpt ? j.interval : remaining);
  if (will_ckpt) {
    engine_.schedule_call(
        at, [this, idx, inc = j.incarnation] { on_ckpt_due(idx, inc); });
  } else {
    engine_.schedule_call(
        at, [this, idx, inc = j.incarnation] { on_finish(idx, inc); });
  }
}

void PlatformSimulator::on_ckpt_due(std::size_t idx, std::int32_t inc) {
  JobState& j = jobs_[idx];
  if (j.incarnation != inc || j.phase != Phase::Computing) return;
  if (cfg_.strategy == CheckpointStrategy::Uncoordinated) {
    begin_write(idx);
    return;
  }
  // Cooperative: queue the request and keep computing. The checkpoint,
  // once granted, covers all work up to the grant instant, so waiting
  // costs nothing — and the remaining work may even finish first.
  j.phase = Phase::WaitingIo;
  j.request_time = engine_.now();
  pending_.push_back(idx);
  const sim::Time finish_at = j.segment_start + (j.spec.work - j.committed);
  engine_.schedule_call(
      finish_at, [this, idx, inc2 = j.incarnation] { on_finish(idx, inc2); });
  grant_next();
}

void PlatformSimulator::grant_next() {
  if (writer_busy_ || pending_.empty()) return;
  std::size_t pick = 0;
  if (cfg_.strategy == CheckpointStrategy::OrderedCooperative) {
    // Smallest write first (shortest-job-first on the I/O server);
    // ties break toward the lower job index for determinism.
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      const Bytes a = ckpt_bytes(jobs_[pending_[i]]);
      const Bytes b = ckpt_bytes(jobs_[pending_[pick]]);
      if (a < b || (a == b && pending_[i] < pending_[pick])) pick = i;
    }
  }
  const std::size_t idx = pending_[pick];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pick));
  writer_busy_ = true;
  begin_write(idx);
}

void PlatformSimulator::begin_write(std::size_t idx) {
  JobState& j = jobs_[idx];
  const sim::Time now = engine_.now();
  if (j.phase == Phase::WaitingIo)
    res_.ckpt_queue_wait_s.add((now - j.request_time).as_sec());
  j.pending = now - j.segment_start;  // work this write will commit
  j.phase = Phase::Writing;
  j.io_start = now;
  ++j.incarnation;  // the in-segment finish/checkpoint timer is stale
  j.transfer = io_.start(ckpt_bytes(j), [this, idx] { on_write_done(idx); });
}

void PlatformSimulator::on_write_done(std::size_t idx) {
  JobState& j = jobs_[idx];
  const sim::Time now = engine_.now();
  const double nodes = static_cast<double>(j.spec.nodes());
  j.transfer = -1;
  res_.ckpt_node_seconds += (now - j.io_start).as_sec() * nodes;
  res_.useful_node_seconds += j.pending.as_sec() * nodes;
  j.committed = j.committed + j.pending;
  j.pending = sim::Time::zero();
  ++res_.ckpts_committed;
  if (cfg_.strategy != CheckpointStrategy::Uncoordinated)
    writer_busy_ = false;
  if (j.committed >= j.spec.work) {
    // The grant landed exactly at the job's last instant of work: the
    // final checkpoint covered everything, nothing left to compute.
    complete(idx);
  } else {
    begin_segment(idx);
  }
  if (cfg_.strategy != CheckpointStrategy::Uncoordinated) grant_next();
}

void PlatformSimulator::on_finish(std::size_t idx, std::int32_t inc) {
  JobState& j = jobs_[idx];
  if (j.incarnation != inc) return;  // stale: granted, crashed, or done
  HPCCSIM_ENSURES(j.phase == Phase::Computing || j.phase == Phase::WaitingIo);
  if (j.phase == Phase::WaitingIo) remove_request(idx);
  const sim::Time accrued = engine_.now() - j.segment_start;
  res_.useful_node_seconds +=
      accrued.as_sec() * static_cast<double>(j.spec.nodes());
  j.committed = j.spec.work;
  complete(idx);
}

void PlatformSimulator::complete(std::size_t idx) {
  JobState& j = jobs_[idx];
  const sim::Time now = engine_.now();
  j.phase = Phase::Done;
  j.finish = now;
  ++j.incarnation;
  alloc_.release(j.pid);
  j.pid = -1;
  res_.busy_node_seconds +=
      (now - j.start).as_sec() * static_cast<double>(j.spec.nodes());
  const double wait_s = (j.start - j.spec.submit).as_sec();
  const double span_s = (now - j.start).as_sec();
  const double bound = std::max(kSlowdownBound.as_sec(), j.spec.work.as_sec());
  res_.bounded_slowdown.add((wait_s + span_s) / bound);
  ++res_.jobs;
  schedule_pass();
}

void PlatformSimulator::on_crash(std::int32_t node) {
  const std::int32_t x = node % mesh_.width();
  const std::int32_t y = node / mesh_.width();
  // Rectangles never overlap, so at most one running job holds the node.
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    JobState& j = jobs_[i];
    if (j.phase == Phase::Queued || j.phase == Phase::Done) continue;
    const Rect& r = alloc_.rect_of(j.pid);
    if (x < r.x || x >= r.x + r.w || y < r.y || y >= r.y + r.h) continue;
    ++res_.crashes_hit;
    const sim::Time now = engine_.now();
    const double nodes = static_cast<double>(j.spec.nodes());
    switch (j.phase) {
      case Phase::Computing:
      case Phase::WaitingIo:
        if (j.phase == Phase::WaitingIo) remove_request(i);
        res_.lost_node_seconds += (now - j.segment_start).as_sec() * nodes;
        ++res_.rollbacks;
        break;
      case Phase::Writing:
        // The in-flight checkpoint dies with the node: its write time
        // is wasted and the work it covered rolls back.
        io_.cancel(j.transfer);
        j.transfer = -1;
        res_.ckpt_aborted_node_seconds += (now - j.io_start).as_sec() * nodes;
        ++res_.ckpts_aborted;
        res_.lost_node_seconds += j.pending.as_sec() * nodes;
        j.pending = sim::Time::zero();
        ++res_.rollbacks;
        if (cfg_.strategy != CheckpointStrategy::Uncoordinated)
          writer_busy_ = false;
        break;
      case Phase::Restoring:
        // Restart the restore; the partial read is charged as restore.
        io_.cancel(j.transfer);
        j.transfer = -1;
        res_.restore_node_seconds += (now - j.io_start).as_sec() * nodes;
        break;
      default: break;
    }
    ++j.incarnation;  // invalidate any in-segment timer
    // The job keeps its partition: roll back in place to the last
    // committed checkpoint (or from scratch if none exists yet).
    if (j.committed > sim::Time::zero()) {
      begin_restore(i);
    } else {
      begin_segment(i);
    }
    if (cfg_.strategy != CheckpointStrategy::Uncoordinated) grant_next();
    return;
  }
}

void PlatformSimulator::begin_restore(std::size_t idx) {
  JobState& j = jobs_[idx];
  j.phase = Phase::Restoring;
  j.io_start = engine_.now();
  j.transfer = io_.start(ckpt_bytes(j), [this, idx] { on_restore_done(idx); });
}

void PlatformSimulator::on_restore_done(std::size_t idx) {
  JobState& j = jobs_[idx];
  j.transfer = -1;
  res_.restore_node_seconds += (engine_.now() - j.io_start).as_sec() *
                               static_cast<double>(j.spec.nodes());
  begin_segment(idx);
}

void PlatformSimulator::remove_request(std::size_t idx) {
  auto it = std::find(pending_.begin(), pending_.end(), idx);
  HPCCSIM_ENSURES(it != pending_.end());
  pending_.erase(it);
}

void PlatformSimulator::schedule_pass() {
  // Start queue-head jobs while they fit.
  while (!queue_.empty() && try_start(queue_.front())) queue_.pop_front();

  if (!queue_.empty() && cfg_.policy == SchedulePolicy::EasyBackfill) {
    // EASY: give the blocked head a reservation on node counts, then
    // let later jobs jump ahead only if they finish (by their own
    // estimate) before the head's reserved start. The actual start
    // still requires a free rectangle (the documented approximation
    // for a mesh-partitioned machine). Estimates don't include
    // checkpoint overhead, so a job can run past its estimated finish;
    // an overdue reservation collapses to "could free any moment now".
    const JobState& head = jobs_[queue_.front()];
    std::vector<std::pair<sim::Time, std::int32_t>> running;
    for (const JobState& j : jobs_)
      if (j.phase != Phase::Queued && j.phase != Phase::Done)
        running.emplace_back(j.start + j.spec.estimate, j.spec.nodes());
    std::sort(running.begin(), running.end());
    std::int32_t free_nodes = alloc_.nodes_total() - alloc_.nodes_busy();
    sim::Time shadow = engine_.now();
    for (const auto& [finish, nodes] : running) {
      if (free_nodes >= head.spec.nodes()) break;
      free_nodes += nodes;
      shadow = std::max(shadow, finish);
    }
    for (auto it = std::next(queue_.begin()); it != queue_.end();) {
      const JobState& cand = jobs_[*it];
      if (engine_.now() + cand.spec.estimate <= shadow && try_start(*it)) {
        ++res_.backfilled;
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  res_.frag_samples.add(alloc_.fragmentation());
}

PlatformResult PlatformSimulator::run() {
  HPCCSIM_EXPECTS(!ran_);
  HPCCSIM_EXPECTS(!jobs_.empty());
  ran_ = true;

  // Arrivals in submit order (stable for equal times).
  std::vector<std::size_t> order(jobs_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return jobs_[a].spec.submit < jobs_[b].spec.submit;
  });
  for (const std::size_t i : order) {
    engine_.schedule_call(jobs_[i].spec.submit, [this, i] {
      queue_.push_back(i);
      schedule_pass();
    });
  }

  // Platform failures: the same pure trace machinery as src/fault, so
  // every strategy sweep point sees identical crash instants (common
  // random numbers). Nodes return to service immediately (transient
  // faults); the damage is the rollback, not the outage.
  if (cfg_.node_mtbf > sim::Time::zero()) {
    fault::FaultConfig fc;
    fc.seed = cfg_.failure_seed;
    fc.node_mtbf = cfg_.node_mtbf;
    fc.horizon = sim::Time::sec(cfg_.failure_horizon_days * 86400.0);
    for (const fault::FaultEvent& ev : fault::generate_fault_trace(fc, mesh_))
      if (ev.kind == fault::FaultEvent::Kind::NodeCrash)
        engine_.schedule_call(ev.when, [this, node = ev.a] { on_crash(node); });
  }

  engine_.run();

  sim::Time makespan = sim::Time::zero();
  for (const JobState& j : jobs_) {
    HPCCSIM_ENSURES(j.phase == Phase::Done);
    makespan = std::max(makespan, j.finish);
  }
  res_.makespan = makespan;
  res_.utilization =
      makespan == sim::Time::zero()
          ? 0.0
          : res_.busy_node_seconds /
                (static_cast<double>(mesh_.node_count()) * makespan.as_sec());
  res_.io = io_.stats();
  HPCCSIM_ENSURES(res_.balanced());
  return res_;
}

void PlatformSimulator::export_counters(obs::Registry& registry) const {
  const std::string p =
      std::string("platform.") + strategy_name(cfg_.strategy) + ".";
  registry.counter(p + "jobs").set(res_.jobs);
  registry.counter(p + "backfilled").set(res_.backfilled);
  registry.counter(p + "crashes_hit").set(res_.crashes_hit);
  registry.counter(p + "rollbacks").set(res_.rollbacks);
  registry.counter(p + "ckpts_committed").set(res_.ckpts_committed);
  registry.counter(p + "ckpts_aborted").set(res_.ckpts_aborted);
  registry.counter(p + "makespan.ns")
      .set(static_cast<std::int64_t>(res_.makespan.as_ns()));
  registry.counter(p + "io.peak_active")
      .set(static_cast<std::int64_t>(res_.io.peak_active));
  registry.counter(p + "io.bytes_completed")
      .set(static_cast<std::int64_t>(res_.io.bytes_completed));
  registry.set_gauge(p + "utilization", res_.utilization);
  registry.set_gauge(p + "waste", res_.waste());
  registry.set_gauge(p + "useful_node_hours",
                     res_.useful_node_seconds / 3600.0);
  registry.set_gauge(p + "ckpt_node_hours", res_.ckpt_node_seconds / 3600.0);
  registry.set_gauge(p + "lost_node_hours", res_.lost_node_seconds / 3600.0);
  registry.set_gauge(p + "restore_node_hours",
                     res_.restore_node_seconds / 3600.0);
  registry.set_gauge(p + "wait_minutes.mean", res_.wait_minutes.mean());
  registry.set_gauge(p + "bounded_slowdown.mean", res_.bounded_slowdown.mean());
  registry.set_gauge(p + "bounded_slowdown.max", res_.bounded_slowdown.max());
  registry.set_gauge(p + "ckpt_queue_wait_s.mean",
                     res_.ckpt_queue_wait_s.mean());
}

}  // namespace hpccsim::sched
