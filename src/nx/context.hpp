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
#include <cstdint>
#include <map>
#include <optional>
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

class NxContext {
 public:
  NxContext(NxMachine& machine, int rank);
  NxContext(const NxContext&) = delete;
  NxContext& operator=(const NxContext&) = delete;

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

  /// Route collective histograms into a band-private registry (merged
  /// into the machine registry after the run); nullptr = machine
  /// registry. Resets the per-kind cache.
  void set_collective_registry(obs::Registry* reg) {
    coll_registry_ = reg;
    coll_hist_.fill(nullptr);
  }

  /// Per-kind collective latency histogram ("nx.collective.<name>.ns")
  /// in the currently-bound registry. The cached-per-enum analogue of
  /// NxMachine::collective_histogram that stays valid (and race-free)
  /// inside parallel windows.
  obs::Histogram& collective_histogram(CollectiveKind k);

  /// Blocking send (NX csend): returns once the message is handed to the
  /// network; the payload is buffered, so the receiver may consume it
  /// later. Charges the sender the messaging-software overhead.
  sim::Task<> send(int dst, int tag, Bytes bytes, Payload payload = {});

  /// Blocking receive (NX crecv): waits for a matching message, then
  /// charges the receive software overhead.
  sim::Task<Message> recv(int src, int tag);

  /// Blocking receive that can be interrupted: resolves to the message,
  /// or to nullopt as soon as `abort` fires. Receive overhead is only
  /// charged on success. Used by the fault-tolerance layer so a crash
  /// elsewhere can unblock a node waiting on a peer that will never
  /// answer.
  sim::Task<std::optional<Message>> recv_abortable(int src, int tag,
                                                   sim::Trigger& abort);

  /// Charge compute time for a kernel invocation (and count its flops).
  sim::Task<> compute(proc::Kernel k, std::int64_t m, std::int64_t n = 0,
                      std::int64_t p = 0);

  /// Charge an arbitrary busy interval.
  sim::Task<> busy(sim::Time t);

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
  obs::Registry* coll_registry_ = nullptr;  ///< nullptr = machine registry
  std::array<obs::Histogram*, kCollectiveKindCount> coll_hist_{};
};

}  // namespace hpccsim::nx
