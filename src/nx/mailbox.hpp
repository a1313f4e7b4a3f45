// Per-node mailbox with (source, tag) matching.
//
// Matching follows the NX/MPI convention: a receive names a source (or
// kAnySource) and a tag (or kAnyTag); messages match in arrival order,
// receives in posting order. Single-threaded under the simulation engine,
// so no locking; wakeups are scheduled through the engine for
// deterministic ordering.
//
// Hot-path storage: queued messages and pending receives live in
// SlotList pools (recycled slots, zero heap traffic after warmup), and
// the settle flag an abortable receive shares with its abort callback
// is a pooled, generation-stamped record instead of a per-call
// shared_ptr — a plain receive (try_take, post) never allocates at all,
// and recv_or_abort only bumps a generation counter.
#pragma once

#include <coroutine>
#include <optional>

#include "core/engine.hpp"
#include "core/slot_list.hpp"
#include "nx/message.hpp"

namespace hpccsim::nx {

class Mailbox {
 public:
  explicit Mailbox(sim::Engine& engine) : engine_(&engine) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Rebind to a different engine (the parallel engine points each
  /// node's mailbox at its rank-band engine for the duration of a run).
  /// Only valid while no receive is pending and no wakeup is in flight.
  void set_engine(sim::Engine& engine) { engine_ = &engine; }

  /// Deposit a message (called by the runtime at network-arrival time).
  void deliver(Message m);

  /// Move the earliest queued message matching (src, tag) into `out`;
  /// false if none is queued.
  bool try_take(int src, int tag, Message& out);

  /// Post a receive for (src, tag): the matching delivery moves its
  /// message into `out` and schedules `w` at the delivery instant
  /// (receives match in posting order). `out` and `w` must live until
  /// then. NxContext::recv takes a queued match first, then posts.
  void post(int src, int tag, Message& out, sim::Waker& w) {
    recvs_.push_back(PendingRecv{src, tag, &out, &w, kNoGuard});
  }

  /// Awaitable: suspends until a message matching (src, tag) arrives,
  /// resolving to it, or resolves to nullopt when `abort` fires first.
  /// Used by the fault-tolerance layer so a crash can interrupt a
  /// blocked receive.
  /// Ties at the same instant favour the message: a delivery scheduled
  /// at time t settles the receive before the abort callback runs.
  ///
  /// The abort guard is pooled: the trigger callback names its guard by
  /// (slot, generation), and releasing the guard on resume bumps the
  /// generation, so a callback that fires after the receive settled (or
  /// after the slot was recycled by a later receive) is a no-op.
  auto recv_or_abort(int src, int tag, sim::Trigger& abort) {
    struct Awaiter {
      Mailbox* mb;
      int src;
      int tag;
      sim::Trigger* abort;
      Message out;
      Resumer resumer;
      std::uint32_t guard = kNoGuard;
      bool ready_taken = false;

      bool await_ready() {
        if (mb->try_take(src, tag, out)) {
          ready_taken = true;
          return true;
        }
        return abort->fired();
      }
      void await_suspend(std::coroutine_handle<> h) {
        guard = mb->acquire_guard();
        const std::uint32_t gen = mb->guards_[guard].gen;
        resumer.handle = h;
        const std::uint32_t where =
            mb->recvs_.push_back(PendingRecv{src, tag, &out, &resumer, guard});
        Mailbox* box = mb;
        const std::uint32_t gid = guard;
        abort->on_fire([box, gid, gen, where, h] {
          box->abort_pending(gid, gen, where, h);
        });
      }
      std::optional<Message> await_resume() {
        if (ready_taken) return std::move(out);
        // No guard means await_ready saw the trigger already fired.
        if (guard == kNoGuard) return std::nullopt;
        if (mb->release_guard(guard)) return std::move(out);
        return std::nullopt;
      }
    };
    return Awaiter{this, src, tag, &abort, {}, {}, kNoGuard, false};
  }

  /// Discard every queued (undelivered) message; returns the count.
  /// Called when the owning node crashes — in-memory state is lost.
  std::size_t drop_queued();

  std::size_t queued() const { return msgs_.size(); }

 private:
  static constexpr std::uint32_t kNoGuard = 0xffffffffu;

  /// Resumes the coroutine of a recv_or_abort at its delivery.
  struct Resumer final : sim::Waker {
    std::coroutine_handle<> handle;
    void wake() override { handle.resume(); }
  };

  /// Shared between an abortable pending receive and the abort
  /// trigger's callback; whichever settles first wins, the loser no-ops.
  struct AbortGuard {
    std::uint32_t gen = 0;  ///< bumped on release; stale callbacks no-op
    bool settled = false;
    bool delivered = false;
  };

  struct PendingRecv {
    int src = 0;
    int tag = 0;
    Message* out = nullptr;
    sim::Waker* waker = nullptr;     ///< scheduled at the delivery instant
    std::uint32_t guard = kNoGuard;  ///< abort-guard slot for recv_or_abort
  };

  static bool matches(const Message& m, int src, int tag) {
    return (src == kAnySource || m.src == src) &&
           (tag == kAnyTag || m.tag == tag);
  }

  std::uint32_t acquire_guard();
  /// Returns whether a delivery settled the guard; recycles the slot.
  bool release_guard(std::uint32_t gid);
  /// Abort-trigger callback body: settle the receive as aborted unless
  /// a delivery already won or the guard generation moved on.
  void abort_pending(std::uint32_t gid, std::uint32_t gen,
                     std::uint32_t where, std::coroutine_handle<> h);

  sim::Engine* engine_;
  sim::SlotList<Message> msgs_;
  sim::SlotList<PendingRecv> recvs_;
  std::vector<AbortGuard> guards_;
  std::vector<std::uint32_t> free_guards_;
};

}  // namespace hpccsim::nx
