#include "nx/context.hpp"

#include <utility>

#include "nx/machine_runtime.hpp"

namespace hpccsim::nx {

obs::Histogram& CollectiveHistograms::get(CollectiveKind k) {
  obs::Histogram*& slot = hist_[static_cast<std::size_t>(k)];
  if (!slot)
    slot = &reg_->histogram(std::string("nx.collective.") + collective_name(k) +
                            ".ns");
  return *slot;
}

NxContext::NxContext(NxMachine& machine, int rank)
    : machine_(&machine),
      rank_(rank),
      engine_(&machine.engine()),
      mailbox_(machine.engine()),
      coll_hist_(&machine.collective_histograms()) {}

int NxContext::nodes() const { return machine_->nodes(); }

const proc::MachineConfig& NxContext::config() const {
  return machine_->config();
}

void NxContext::set_collective_histograms(CollectiveHistograms* h) {
  coll_hist_ = h ? h : &machine_->collective_histograms();
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

NxContext::SendAwaiter NxContext::send(int dst, int tag, Bytes bytes,
                                       Payload payload) {
  HPCCSIM_EXPECTS(dst >= 0 && dst < nodes());
  HPCCSIM_EXPECTS(tag >= 0);
  if (recorder_) record_send(dst, tag, bytes);
  // csend: the CPU drives the send — software overhead blocks the node.
  op_.at = engine_->now() + config().send_overhead;
  // A sharded run captures the send here, one send_overhead before it
  // departs: that gap is the parallel engine's lookahead window.
  if (intent_sink_)
    capture_intent(dst, tag, bytes, std::move(payload), op_.at);
  else
    op_.msg = Message{dst, tag, bytes, std::move(payload)};
  return SendAwaiter(this);
}

void NxContext::depart() {
  if (!intent_sink_)
    launch_message(op_.msg.src, op_.msg.tag, op_.msg.bytes,
                   std::move(op_.msg.payload), op_.at);
  stats_.send_wait += config().send_overhead;
}

void NxContext::post_recv(std::coroutine_handle<> h, int src, int tag) {
  op_.at = engine_->now();
  op_.caller = h;
  if (mailbox_.try_take(src, tag, op_.msg))
    engine_->schedule(op_.at + config().recv_overhead, h);
  else
    mailbox_.post(src, tag, op_.msg, *this);
}

void NxContext::wake() {
  engine_->schedule(engine_->now() + config().recv_overhead, op_.caller);
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

sim::DelayAwaiter NxContext::compute(proc::Kernel k, std::int64_t m,
                                     std::int64_t n, std::int64_t p) {
  if (recorder_) record_compute(k, m, n, p);
  const sim::Time t = config().node.time_for(k, m, n, p);
  stats_.flops_charged += proc::kernel_flops(k, m, n, p);
  stats_.compute_time += t;
  return engine_->delay(t);
}

}  // namespace hpccsim::nx
