#include "fault/checkpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hpccsim::fault {

namespace {

// Epoch-key layout for abortable barriers: attempts never share keys,
// epochs within an attempt never share keys, and each rendezvous gets
// the sentinel epoch. Keys alias only after ~2048 attempts (the barrier
// folds them into a 2^26 tag window), far beyond any plausible run.
constexpr int kRendezvousEpoch = 8191;

int key(int attempt, int epoch, int phase) {
  HPCCSIM_EXPECTS(epoch >= 0 && epoch <= kRendezvousEpoch);
  HPCCSIM_EXPECTS(phase >= 0 && phase < 4);
  return (attempt * (kRendezvousEpoch + 1) + epoch) * 4 + phase;
}

}  // namespace

CheckpointedRun::CheckpointedRun(nx::NxMachine& machine,
                                 FaultInjector& injector, io::Cfs* cfs,
                                 CheckpointConfig cfg)
    : machine_(&machine),
      injector_(&injector),
      cfs_(cfs),
      cfg_(cfg),
      world_(/*first=*/0, /*stride=*/1, machine.nodes(), /*tag_space=*/0) {
  HPCCSIM_EXPECTS(cfg_.total_work > sim::Time::zero());
  HPCCSIM_EXPECTS(cfg_.interval > sim::Time::zero());
  HPCCSIM_EXPECTS(!cfg_.use_cfs || cfs_ != nullptr);
  abort_ = std::make_unique<sim::Trigger>(machine_->engine());
  done_trigger_ = std::make_unique<sim::Trigger>(machine_->engine());
  injector_->add_crash_listener([this](std::int32_t) {
    if (done_) return;
    ++attempt_;
    retired_aborts_.push_back(std::move(abort_));
    abort_ = std::make_unique<sim::Trigger>(machine_->engine());
    retired_aborts_.back()->fire();
  });
}

void CheckpointedRun::mark_into(sim::Time& bucket) {
  const sim::Time now = machine_->engine().now();
  bucket += now - mark_;
  mark_ = now;
}

void CheckpointedRun::trace_span(const std::string& name, sim::Time start) {
  if (obs::TraceWriter* tw = machine_->trace_writer())
    tw->complete(machine_->nodes(), name, "ckpt", start,
                 machine_->engine().now());
}

void CheckpointedRun::trace_mark(const std::string& name) {
  if (obs::TraceWriter* tw = machine_->trace_writer())
    tw->instant(machine_->nodes(), name, "ckpt", machine_->engine().now());
}

void CheckpointedRun::export_counters(obs::Registry& registry) const {
  auto set = [&registry](std::string_view name, std::uint64_t v) {
    registry.counter(name).set(static_cast<std::int64_t>(v));
  };
  set("ckpt.checkpoints", report_.checkpoints);
  set("ckpt.rollbacks", report_.restores);
  set("ckpt.aborted_epochs", report_.aborted_epochs);
  set("ckpt.crashes", report_.crashes);
  set("ckpt.messages_dropped", report_.messages_dropped);
  set("ckpt.elapsed.ns", static_cast<std::uint64_t>(report_.elapsed.as_ns()));
  set("ckpt.useful.ns", static_cast<std::uint64_t>(report_.useful.as_ns()));
  set("ckpt.checkpoint.ns",
      static_cast<std::uint64_t>(report_.checkpoint.as_ns()));
  set("ckpt.restore.ns", static_cast<std::uint64_t>(report_.restore.as_ns()));
  set("ckpt.lost.ns", static_cast<std::uint64_t>(report_.lost.as_ns()));
  set("ckpt.sync.ns", static_cast<std::uint64_t>(report_.sync.as_ns()));
  set("ckpt.recovery_wait.ns",
      static_cast<std::uint64_t>(report_.recovery_wait.as_ns()));
}

void CheckpointedRun::commit_tentative() {
  report_.useful += tent_compute_;
  report_.sync += tent_sync_;
  report_.checkpoint += tent_ckpt_;
  if (wrote_this_epoch_) ++report_.checkpoints;
  tent_compute_ = sim::Time::zero();
  tent_sync_ = sim::Time::zero();
  tent_ckpt_ = sim::Time::zero();
}

void CheckpointedRun::abort_tentative() {
  const sim::Time t = tent_compute_ + tent_sync_ + tent_ckpt_;
  if (t > sim::Time::zero()) ++report_.aborted_epochs;
  report_.lost += t;
  tent_compute_ = sim::Time::zero();
  tent_sync_ = sim::Time::zero();
  tent_ckpt_ = sim::Time::zero();
}

sim::Task<bool> CheckpointedRun::write_checkpoint(nx::NxContext& ctx,
                                                  int epoch,
                                                  sim::Trigger& abort) {
  if (!cfg_.use_cfs) {
    co_return co_await sim::abortable_delay(
        ctx.engine(), cfg_.fixed_checkpoint_cost, abort);
  }
  // Double-buffered checkpoint file: epoch parity selects the half, so
  // a crash mid-write can never corrupt the last committed image.
  const auto n = static_cast<std::int64_t>(machine_->nodes());
  const auto sz = static_cast<std::int64_t>(cfg_.bytes_per_node);
  const std::int64_t offset = (epoch % 2) * n * sz + ctx.rank() * sz;
  co_await cfs_->write(ctx, offset, cfg_.bytes_per_node);
  // The write itself is not interruptible (the model completes the I/O
  // it started); whether it still counts is decided by the commit
  // barrier, so just report if the attempt died underneath us.
  co_return !abort.fired();
}

sim::Task<> CheckpointedRun::read_checkpoint(nx::NxContext& ctx,
                                             int epoch) {
  if (!cfg_.use_cfs) {
    co_await ctx.engine().delay(cfg_.fixed_restore_cost);
    co_return;
  }
  const auto n = static_cast<std::int64_t>(machine_->nodes());
  const auto sz = static_cast<std::int64_t>(cfg_.bytes_per_node);
  const std::int64_t offset = (epoch % 2) * n * sz + ctx.rank() * sz;
  co_await cfs_->read(ctx, offset, cfg_.bytes_per_node);
}

sim::Task<> CheckpointedRun::node_program(nx::NxContext& ctx) {
  auto& eng = ctx.engine();
  const bool lead = ctx.rank() == 0;
  int local_attempt = 0;
  int local_epoch = 0;
  sim::Time local_committed;

  for (;;) {
    if (done_) co_return;

    if (local_attempt != attempt_) {
      // ---- recovery: a crash rolled the machine back ----
      if (lead) {
        abort_tentative();
        mark_into(report_.lost);  // partial work since the last mark
      }
      co_await injector_->wait_until_all_up();
      if (done_) co_return;  // the job finished while we waited
      const int target = attempt_;
      sim::Trigger& abort = *abort_;
      if (lead) mark_into(report_.recovery_wait);
      const bool met = co_await nx::abortable_barrier(
          ctx, world_, abort, key(target, kRendezvousEpoch, 0));
      if (lead) mark_into(report_.recovery_wait);
      if (!met) continue;  // crashed again mid-rendezvous
      // Roll back to the lead-committed frontier and reload it.
      local_committed = committed_;
      local_epoch = committed_epochs_;
      if (local_epoch > 0) {
        const sim::Time restore_start = eng.now();
        co_await read_checkpoint(ctx, local_epoch - 1);
        if (lead) {
          mark_into(report_.restore);
          ++report_.restores;
          trace_span("rollback restore e" + std::to_string(local_epoch - 1),
                     restore_start);
        }
      }
      local_attempt = target;
      continue;
    }

    const sim::Time remaining = cfg_.total_work - local_committed;
    sim::Trigger& abort = *abort_;

    if (remaining == sim::Time::zero()) {
      // Locally finished, but completion is only real once the lead
      // commits the last segment; wait for that or another rollback.
      co_await sim::race_triggers(*done_trigger_, abort);
      continue;
    }

    const sim::Time seg = std::min(cfg_.interval, remaining);
    const bool last = seg == remaining;

    // ---- one epoch: compute, checkpoint, commit ----
    const sim::Time compute_start = eng.now();
    const bool computed = co_await sim::abortable_delay(eng, seg, abort);
    if (lead) {
      mark_into(tent_compute_);
      trace_span("compute e" + std::to_string(local_epoch), compute_start);
    }
    if (!computed) continue;

    if (!last) {
      const bool entered = co_await nx::abortable_barrier(
          ctx, world_, abort, key(local_attempt, local_epoch, 1));
      if (lead) mark_into(tent_sync_);
      if (!entered) continue;
      const sim::Time write_start = eng.now();
      const bool written =
          co_await write_checkpoint(ctx, local_epoch, abort);
      if (lead) {
        mark_into(tent_ckpt_);
        trace_span("checkpoint write e" + std::to_string(local_epoch),
                   write_start);
      }
      if (!written) continue;
    }

    // Completing this barrier proves every rank reached it, i.e. every
    // rank's checkpoint (if any) is fully on disk: safe to commit.
    const bool sealed = co_await nx::abortable_barrier(
        ctx, world_, abort, key(local_attempt, local_epoch, 2));
    if (lead) mark_into(tent_sync_);
    if (!sealed) continue;

    local_committed += seg;
    if (!last) ++local_epoch;
    if (lead) {
      committed_ = local_committed;
      committed_epochs_ = local_epoch;
      wrote_this_epoch_ = !last;
      commit_tentative();
      trace_mark(last ? "job complete"
                      : "commit e" + std::to_string(local_epoch - 1));
      if (local_committed == cfg_.total_work) {
        done_ = true;
        report_.elapsed = eng.now() - start_;
        injector_->disarm();  // leftover armed faults become no-ops
        done_trigger_->fire();
        co_return;
      }
    }
  }
}

sim::Time CheckpointedRun::execute() {
  start_ = machine_->engine().now();
  mark_ = start_;
  injector_->arm();
  machine_->run(
      [this](nx::NxContext& ctx) { return node_program(ctx); });
  HPCCSIM_ENSURES(done_);
  report_.crashes = injector_->crashes();
  report_.messages_dropped = machine_->messages_dropped();
  return report_.elapsed;
}

}  // namespace hpccsim::fault
