#include "io/bandwidth.hpp"

#include <algorithm>

namespace hpccsim::io {

namespace {
// Transfers within a milli-byte of zero are drained: Time::sec rounds
// the wake-up to the nearest picosecond, so the settled remainder can
// sit a hair above zero at the completion instant.
constexpr double kDrainedBytes = 1e-3;
}  // namespace

BytesPerSecond effective_cfs_bandwidth(const CfsConfig& cfg,
                                       std::int32_t disks) {
  HPCCSIM_EXPECTS(disks > 0);
  // Per-disk seconds per byte: streaming plus one seek per stripe.
  const double stream = 1.0 / cfg.disk_bw.bytes_per_sec();
  const double seek = cfg.seek.as_sec() / static_cast<double>(cfg.stripe);
  return BytesPerSecond{static_cast<double>(disks) / (stream + seek)};
}

SharedBandwidth::SharedBandwidth(sim::Engine& engine, BytesPerSecond aggregate)
    : engine_(&engine), rate_(aggregate.bytes_per_sec()) {
  HPCCSIM_EXPECTS(rate_ > 0.0);
}

void SharedBandwidth::settle() {
  const sim::Time now = engine_->now();
  if (now == last_settle_) return;
  if (!active_.empty()) {
    const double elapsed = (now - last_settle_).as_sec();
    const double share = rate_ / static_cast<double>(active_.size());
    for (const TransferId id : active_) {
      Transfer& t = transfers_.at(id);
      t.remaining = std::max(0.0, t.remaining - elapsed * share);
    }
    stats_.busy += now - last_settle_;
  }
  last_settle_ = now;
}

void SharedBandwidth::reschedule() {
  ++generation_;
  if (active_.empty()) return;
  double min_remaining = transfers_.at(active_.front()).remaining;
  for (const TransferId id : active_)
    min_remaining = std::min(min_remaining, transfers_.at(id).remaining);
  const double share = rate_ / static_cast<double>(active_.size());
  sim::Time dt = sim::Time::sec(min_remaining / share);
  // Never wake up at the current instant with undrained work: a
  // sub-picosecond remainder would otherwise spin the event loop.
  if (dt == sim::Time::zero() && min_remaining > kDrainedBytes)
    dt = sim::Time::ps(1);
  engine_->schedule_call(engine_->now() + dt,
                         [this, gen = generation_] { on_wakeup(gen); });
}

void SharedBandwidth::on_wakeup(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by a later event
  settle();
  // Collect drained transfers in ascending id order (active_ is sorted),
  // remove them all, then fire callbacks — a callback may start() or
  // cancel() reentrantly without seeing half-removed state.
  std::vector<TransferId> done;
  for (const TransferId id : active_)
    if (transfers_.at(id).remaining <= kDrainedBytes) done.push_back(id);
  std::vector<std::function<void()>> callbacks;
  callbacks.reserve(done.size());
  for (const TransferId id : done) {
    auto it = transfers_.find(id);
    stats_.bytes_completed += it->second.total;
    ++stats_.completed;
    callbacks.push_back(std::move(it->second.on_complete));
    transfers_.erase(it);
    active_.erase(std::find(active_.begin(), active_.end(), id));
  }
  reschedule();
  for (auto& cb : callbacks)
    if (cb) cb();
}

SharedBandwidth::TransferId SharedBandwidth::start(
    Bytes bytes, std::function<void()> on_complete) {
  HPCCSIM_EXPECTS(bytes > 0);
  settle();
  const TransferId id = next_id_++;
  Transfer t;
  t.remaining = static_cast<double>(bytes);
  t.total = bytes;
  t.on_complete = std::move(on_complete);
  transfers_.emplace(id, std::move(t));
  active_.push_back(id);  // ids are monotonic: stays sorted
  stats_.peak_active =
      std::max(stats_.peak_active, static_cast<std::int32_t>(active_.size()));
  reschedule();
  return id;
}

void SharedBandwidth::cancel(TransferId id) {
  auto it = transfers_.find(id);
  if (it == transfers_.end()) return;  // already drained
  settle();
  stats_.bytes_abandoned += static_cast<Bytes>(it->second.remaining + 0.5);
  ++stats_.canceled;
  transfers_.erase(it);
  active_.erase(std::find(active_.begin(), active_.end(), id));
  reschedule();
}

}  // namespace hpccsim::io
