// NxContext: the per-node handle a node program uses to talk to the
// simulated machine — the analogue of Intel's NX library on the Delta
// (csend/crecv and friends), expressed as awaitables.
//
// Node programs are SPMD coroutines:
//
//   sim::Task<> program(nx::NxContext& ctx) {
//     if (ctx.rank() == 0) co_await ctx.send(1, /*tag=*/7, 1024);
//     else { auto m = co_await ctx.recv(0, 7); ... }
//     co_await ctx.compute(proc::Kernel::Gemm, 64, 64, 64);
//   }
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <map>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/engine.hpp"
#include "core/task.hpp"
#include "mesh/netmodel.hpp"
#include "nx/mailbox.hpp"
#include "nx/message.hpp"
#include "nx/skeleton.hpp"
#include "obs/counters.hpp"
#include "proc/machine.hpp"

namespace hpccsim::nx {

class NxMachine;

/// One send a rank-band engine captures when it is posted, instead of
/// touching the shared NetworkModel at departure: the coordinator
/// replays each window's intents in (depart, src, seq) order — the
/// order the sequential engine makes those transfer() calls
/// (src/nx/parallel_engine.cpp, docs/MODEL.md §15).
struct LaunchIntent {
  sim::Time depart;       ///< when the sequential engine calls transfer()
  std::uint64_t seq = 0;  ///< band capture index (assigned at collection)
  int src = 0;
  int dst = 0;
  int tag = 0;
  Bytes bytes = 0;
  Payload payload;
};

/// The per-kind collective latency histograms ("nx.collective.<name>.ns")
/// of one registry, each resolved on first use, so a kind never invoked
/// adds nothing to the dump. One per registry: the machine's, and one
/// per rank band of a sharded run.
class CollectiveHistograms {
 public:
  explicit CollectiveHistograms(obs::Registry& reg) : reg_(&reg) {}
  CollectiveHistograms(const CollectiveHistograms&) = delete;
  CollectiveHistograms& operator=(const CollectiveHistograms&) = delete;

  obs::Histogram& get(CollectiveKind k);

 private:
  obs::Registry* reg_;
  std::array<obs::Histogram*, kCollectiveKindCount> hist_{};
};

/// Statistics one node accumulates (aggregated by NxMachine).
struct NodeStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  Bytes bytes_sent = 0;
  Flops flops_charged = 0;
  sim::Time compute_time;
  sim::Time send_wait;
  sim::Time recv_wait;
};

/// A rank is one coroutine chain, so it has at most one blocking op in
/// flight: the leaf ops (send, recv, compute, busy) keep their state in
/// the context and return frameless awaiters. Each must be co_awaited in
/// the expression that calls it.
class NxContext final : private sim::Waker {
 public:
  NxContext(NxMachine& machine, int rank);
  NxContext(const NxContext&) = delete;
  NxContext& operator=(const NxContext&) = delete;

  /// What send returns: resumes the caller at the departure instant,
  /// after handing the message to the network.
  class [[nodiscard]] SendAwaiter {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      ctx_->engine_->schedule(ctx_->op_.at, h);
    }
    void await_resume() const { ctx_->depart(); }

   private:
    friend class NxContext;
    explicit SendAwaiter(NxContext* ctx) : ctx_(ctx) {}
    NxContext* ctx_;
  };

  /// What recv returns: resumes the caller recv_overhead after a
  /// matching message is (or was already) in the mailbox.
  class [[nodiscard]] RecvAwaiter {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      ctx_->post_recv(h, src_, tag_);
    }
    Message await_resume() const {
      NxContext& c = *ctx_;
      ++c.stats_.recvs;
      c.stats_.recv_wait += c.engine_->now() - c.op_.at;
      return std::move(c.op_.msg);
    }

   private:
    friend class NxContext;
    RecvAwaiter(NxContext* ctx, int src, int tag)
        : ctx_(ctx), src_(src), tag_(tag) {}
    NxContext* ctx_;
    int src_;
    int tag_;
  };

  int rank() const { return rank_; }
  int nodes() const;
  sim::Time now() const { return engine_->now(); }
  sim::Engine& engine() { return *engine_; }
  /// The owning machine (collectives use it for counters and tracing).
  NxMachine& machine() { return *machine_; }

  // ------------------------------------------------------- parallel --
  // Hooks the parallel engine (src/nx/parallel_engine.*) flips for the
  // duration of a sharded run; all default to the sequential bindings.

  /// Point this node at a rank-band engine (and back). Rebinds the
  /// mailbox too; only valid between runs.
  void set_engine(sim::Engine& e) {
    engine_ = &e;
    mailbox_.set_engine(e);
  }

  /// While set, send captures a LaunchIntent when posted instead of
  /// launching at departure (nullptr restores direct launch).
  void set_intent_sink(std::vector<LaunchIntent>* sink) {
    intent_sink_ = sink;
  }

  /// Route collective histograms into a band's own set (merged into the
  /// machine registry after the run); nullptr = the machine's.
  void set_collective_histograms(CollectiveHistograms* h);

  /// Per-kind collective latency histogram ("nx.collective.<name>.ns")
  /// in the currently-bound set, so it stays valid (and race-free)
  /// inside parallel windows.
  obs::Histogram& collective_histogram(CollectiveKind k) {
    return coll_hist_->get(k);
  }

  /// Blocking send (NX csend): returns once the message is handed to the
  /// network; the payload is buffered, so the receiver may consume it
  /// later. Charges the sender the messaging-software overhead.
  SendAwaiter send(int dst, int tag, Bytes bytes, Payload payload = {});

  /// Blocking receive (NX crecv): waits for a matching message, then
  /// charges the receive software overhead.
  RecvAwaiter recv(int src, int tag) {
    if (recorder_) record_recv(src, tag);
    return RecvAwaiter(this, src, tag);
  }

  /// Blocking receive that can be interrupted: resolves to the message,
  /// or to nullopt as soon as `abort` fires. Receive overhead is only
  /// charged on success. Used by the fault-tolerance layer so a crash
  /// elsewhere can unblock a node waiting on a peer that will never
  /// answer.
  sim::Task<std::optional<Message>> recv_abortable(int src, int tag,
                                                   sim::Trigger& abort);

  /// Charge compute time for a kernel invocation (and count its flops).
  sim::DelayAwaiter compute(proc::Kernel k, std::int64_t m, std::int64_t n = 0,
                            std::int64_t p = 0);

  /// Charge an arbitrary busy interval.
  sim::DelayAwaiter busy(sim::Time t) {
    if (recorder_)
      recorder_->ops.push_back(SkelOp{
          SkelOp::Busy, 0, 0, 0, static_cast<std::uint64_t>(t.picoseconds())});
    stats_.compute_time += t;
    return engine_->delay(t);
  }

  const proc::MachineConfig& config() const;
  const NodeStats& stats() const { return stats_; }

  /// Per-(tag-space) collective sequence numbers; see collectives.hpp.
  int next_collective_seq(int tag_space) {
    return collective_seq_[tag_space]++;
  }

  Mailbox& mailbox() { return mailbox_; }

  /// Attach (or detach, with nullptr) a skeleton recorder: every
  /// subsequent send/recv/compute/busy appends one SkelOp. Recording is
  /// observation-only — it never changes engine-visible behaviour —
  /// and ops the replayer cannot model (recv_abortable, kAnyTag
  /// receives) invalidate the recording instead of lying.
  void set_skeleton_recorder(SkeletonRecorder* rec) { recorder_ = rec; }
  SkeletonRecorder* skeleton_recorder() const { return recorder_; }
  /// Record a named instant (replayed as "read the clock here").
  void skeleton_mark(std::uint8_t id) {
    if (recorder_)
      recorder_->ops.push_back(SkelOp{SkelOp::MarkTime, id, 0, 0, 0});
  }

 private:
  /// Send's second half, at the departure instant: the network handoff
  /// (unless the send was captured) and the send-wait charge.
  void depart();
  /// Recv's suspension: take a queued match, or post the receive and
  /// wait for the delivery's wake.
  void post_recv(std::coroutine_handle<> h, int src, int tag);
  /// The delivery of a posted receive: charge recv_overhead.
  void wake() override;

  /// The actual network handoff, made at the departure instant:
  /// reserves the route from `depart` and schedules delivery at the
  /// destination.
  void launch_message(int dst, int tag, Bytes bytes, Payload payload,
                      sim::Time depart);
  /// Sharded-run stand-in for launch_message, made when the send is
  /// posted: hands the message to the coordinator keyed by `depart`.
  void capture_intent(int dst, int tag, Bytes bytes, Payload payload,
                      sim::Time depart);

  // Cold-path recording helpers (context.cpp).
  void record_send(int dst, int tag, Bytes bytes);
  void record_recv(int src, int tag);
  void record_compute(proc::Kernel k, std::int64_t m, std::int64_t n,
                      std::int64_t p);

  NxMachine* machine_;
  int rank_;
  /// The engine driving this node: the machine's engine, or a rank-band
  /// engine during a parallel run.
  sim::Engine* engine_;
  Mailbox mailbox_;
  NodeStats stats_;
  std::map<int, int> collective_seq_;
  SkeletonRecorder* recorder_ = nullptr;
  std::vector<LaunchIntent>* intent_sink_ = nullptr;
  CollectiveHistograms* coll_hist_;
  /// The one blocking op in flight. A send keeps its message (src holds
  /// the destination) and departure instant; a receive its message, post
  /// instant and caller.
  struct PendingOp {
    Message msg;
    sim::Time at;
    std::coroutine_handle<> caller;
  } op_;
};

static_assert(sizeof(NxContext::SendAwaiter) <= 16 &&
              sizeof(NxContext::RecvAwaiter) <= 16);
static_assert(std::is_trivially_destructible_v<NxContext::SendAwaiter> &&
              std::is_trivially_destructible_v<NxContext::RecvAwaiter>);
// Contexts are paid per rank (16,384 on Columbia); the leaf ops' state
// must not grow them past the size they had as Task coroutines.
static_assert(sizeof(NxContext) <= 400);

}  // namespace hpccsim::nx
