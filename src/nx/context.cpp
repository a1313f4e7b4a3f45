#include "nx/context.hpp"

#include <utility>

#include "nx/machine_runtime.hpp"

namespace hpccsim::nx {

NxContext::NxContext(NxMachine& machine, int rank)
    : machine_(&machine),
      rank_(rank),
      engine_(&machine.engine()),
      mailbox_(machine.engine()) {}

int NxContext::nodes() const { return machine_->nodes(); }

const proc::MachineConfig& NxContext::config() const {
  return machine_->config();
}

obs::Histogram& NxContext::collective_histogram(CollectiveKind k) {
  obs::Histogram*& slot = coll_hist_[static_cast<std::size_t>(k)];
  if (!slot) {
    obs::Registry& reg =
        coll_registry_ ? *coll_registry_ : machine_->counters();
    slot = &reg.histogram(std::string("nx.collective.") +
                          collective_name(k) + ".ns");
  }
  return *slot;
}

void NxContext::record_send(int dst, int tag, Bytes bytes) {
  if (dst > 0xffff || tag < 0) {
    recorder_->invalidate();
    return;
  }
  recorder_->ops.push_back(SkelOp{SkelOp::Send, 0,
                                  static_cast<std::uint16_t>(dst),
                                  static_cast<std::uint32_t>(tag), bytes});
}

void NxContext::record_recv(int src, int tag) {
  if (src < kAnySource || tag < kAnyTag || tag == kAnyTag) {
    // kAnyTag receives would need arrival-dependent matching on replay.
    recorder_->invalidate();
    return;
  }
  recorder_->ops.push_back(SkelOp{SkelOp::Recv, 0, 0,
                                  static_cast<std::uint32_t>(src + 1),
                                  static_cast<std::uint64_t>(tag)});
}

void NxContext::record_compute(proc::Kernel k, std::int64_t m, std::int64_t n,
                               std::int64_t p) {
  constexpr std::int64_t kMax32 = 0xffffffffll;
  if (m < 0 || n < 0 || p < 0 || m > kMax32 || n > kMax32 || p > kMax32) {
    recorder_->invalidate();
    return;
  }
  recorder_->ops.push_back(
      SkelOp{SkelOp::Compute, static_cast<std::uint8_t>(k), 0,
             static_cast<std::uint32_t>(p),
             (static_cast<std::uint64_t>(m) << 32) |
                 static_cast<std::uint64_t>(n)});
}

void NxContext::capture_intent(int dst, int tag, Bytes bytes,
                               Payload payload, sim::Time depart) {
  // The NetworkModel's link state is shared across rank bands, so the
  // coordinator makes the transfer, serially between windows
  // (src/nx/parallel_engine.cpp). Node-local accounting still happens
  // here, on the band thread that owns this context.
  ++stats_.sends;
  stats_.bytes_sent += bytes;
  intent_sink_->push_back(
      LaunchIntent{depart, 0, rank_, dst, tag, bytes, std::move(payload)});
}

void NxContext::launch_message(int dst, int tag, Bytes bytes,
                               Payload payload, sim::Time depart) {
  const sim::Time arrival =
      machine_->transfer_message(rank_, dst, tag, bytes, depart);
  ++stats_.sends;
  stats_.bytes_sent += bytes;

  if (obs::TraceWriter* tw = machine_->trace_writer()) {
    // One slice on the sender's track spanning the network flight.
    tw->complete(rank_,
                 "msg->" + std::to_string(dst) + " t" + std::to_string(tag),
                 "msg", depart, arrival);
  }

  Message msg{rank_, tag, bytes, std::move(payload)};
  engine_->schedule_call(arrival, Delivery{machine_, dst, std::move(msg)});
}

sim::Task<> NxContext::send(int dst, int tag, Bytes bytes, Payload payload) {
  HPCCSIM_EXPECTS(dst >= 0 && dst < nodes());
  HPCCSIM_EXPECTS(tag >= 0);
  if (recorder_) record_send(dst, tag, bytes);
  auto& eng = *engine_;
  const sim::Time start = eng.now();
  // A sharded run captures the send here, one send_overhead before it
  // departs: that gap is the parallel engine's lookahead window.
  const bool captured = intent_sink_ != nullptr;
  if (captured)
    capture_intent(dst, tag, bytes, std::move(payload),
                   start + config().send_overhead);

  // csend: the CPU drives the send — software overhead blocks the node.
  co_await eng.delay(config().send_overhead);
  if (!captured)
    launch_message(dst, tag, bytes, std::move(payload), eng.now());
  stats_.send_wait += eng.now() - start;
}

sim::Task<Message> NxContext::recv(int src, int tag) {
  if (recorder_) record_recv(src, tag);
  auto& eng = *engine_;
  const sim::Time start = eng.now();
  Message m = co_await mailbox_.recv(src, tag);
  co_await eng.delay(config().recv_overhead);
  ++stats_.recvs;
  stats_.recv_wait += eng.now() - start;
  co_return m;
}

sim::Task<std::optional<Message>> NxContext::recv_abortable(
    int src, int tag, sim::Trigger& abort) {
  if (recorder_) recorder_->invalidate();  // abort races are not replayable
  auto& eng = *engine_;
  const sim::Time start = eng.now();
  std::optional<Message> m = co_await mailbox_.recv_or_abort(src, tag, abort);
  if (!m) co_return std::nullopt;
  co_await eng.delay(config().recv_overhead);
  ++stats_.recvs;
  stats_.recv_wait += eng.now() - start;
  co_return m;
}

sim::Task<> NxContext::compute(proc::Kernel k, std::int64_t m,
                               std::int64_t n, std::int64_t p) {
  if (recorder_) record_compute(k, m, n, p);
  const sim::Time t = config().node.time_for(k, m, n, p);
  stats_.flops_charged += proc::kernel_flops(k, m, n, p);
  stats_.compute_time += t;
  co_await engine_->delay(t);
}

sim::Task<> NxContext::busy(sim::Time t) {
  if (recorder_)
    recorder_->ops.push_back(
        SkelOp{SkelOp::Busy, 0, 0, 0,
               static_cast<std::uint64_t>(t.picoseconds())});
  stats_.compute_time += t;
  co_await engine_->delay(t);
}

}  // namespace hpccsim::nx
