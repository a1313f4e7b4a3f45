// The discrete-event simulation engine.
//
// Single-threaded and deterministic: events are ordered by (time, sequence
// number), so two runs with the same seed produce identical traces. All
// concurrency in the simulated machine is expressed as coroutine processes
// (Task<void>) that suspend on awaitables (delay, Trigger) and are
// resumed by the engine.
//
// One Engine per host thread; engines are not thread-safe and never need
// to be — determinism plus coroutines gives us hundreds of virtual
// processors with zero data races by construction, and sweeps scale by
// running independent engines on independent threads (util/parallel.hpp).
//
// Hot-path design (see docs/PERF.md for measurements):
//   - pending events are 24-byte PODs in a 4-ary min-heap
//     (core/event_queue.hpp), not fat records with a std::function;
//   - callbacks are InlineFn<48> stored in a recycled slot pool, so
//     schedule_call never heap-allocates for captures <= 48 bytes;
//   - coroutine frames come from a thread-local size-class arena
//     (core/frame_arena.hpp), not the global allocator.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/event_queue.hpp"
#include "core/frame_arena.hpp"
#include "core/inline_fn.hpp"
#include "core/task.hpp"
#include "core/time.hpp"
#include "util/assert.hpp"

namespace hpccsim::sim {

class Engine;

/// Callback type for schedule_call: captures up to 48 bytes are stored
/// inline (no allocation); larger ones fall back to one heap box.
using Callback = InlineFn<48>;

/// An event target for code that must run at an instant without owning
/// a coroutine frame or a callback slot: Engine::schedule_wake queues
/// the object itself, and the engine calls wake() at that instant. A
/// wake is an event like a coroutine resume (it counts in
/// events_processed(), not in calls_scheduled()). The object must
/// outlive its pending wakes.
class Waker {
 public:
  virtual void wake() = 0;
};

/// What Engine::delay returns: resumes the awaiting coroutine `dt`
/// later. Trivially destructible, 16 bytes, owns no frame.
struct [[nodiscard]] DelayAwaiter {
  Engine* e;
  Time dt;
  bool await_ready() const noexcept { return false; }
  inline void await_suspend(std::coroutine_handle<> h) const;
  void await_resume() const noexcept {}
};

/// One-shot latch: processes await it; fire() releases all current and
/// future waiters. Used for process-join and phase barriers.
class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(&engine) {}

  // Waiter handles are raw coroutine handles owned by their processes;
  // Trigger must not outlive the engine that owns those processes.
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  void fire();
  bool fired() const { return fired_; }

  /// Register a callback to run at the fire instant (scheduled through
  /// the event queue, like waiter resumes). If already fired, the
  /// callback is scheduled at the current instant. Callbacks on a
  /// trigger that never fires are retained until the trigger dies —
  /// intended for short-lived triggers (abort epochs).
  void on_fire(Callback cb);

  auto wait() {
    struct Awaiter {
      Trigger* t;
      bool await_ready() const noexcept { return t->fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        t->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Engine* engine_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<Callback> fire_callbacks_;
  bool fired_ = false;
};

/// Identifies a spawned root process within its Engine.
struct ProcessId {
  std::uint32_t index = 0;
};

class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedule a coroutine resume at an absolute time (>= now).
  void schedule(Time when, std::coroutine_handle<> h) {
    HPCCSIM_EXPECTS(when >= now_);
    HPCCSIM_EXPECTS(h != nullptr);
    queue_.push({when.picoseconds(), next_seq_++,
                 reinterpret_cast<std::uintptr_t>(h.address())});
    note_queue_depth();
  }

  /// Schedule `w.wake()` at an absolute time (>= now). Takes its
  /// (time, sequence) place like schedule(); see Waker.
  void schedule_wake(Time when, Waker& w) {
    HPCCSIM_EXPECTS(when >= now_);
    queue_.push({when.picoseconds(), next_seq_++,
                 reinterpret_cast<std::uintptr_t>(&w) | kWakeBit});
    note_queue_depth();
  }

  /// Schedule an arbitrary callback (used by the flit-level network, NX
  /// message delivery, and the batch scheduler).
  void schedule_call(Time when, Callback fn) {
    HPCCSIM_EXPECTS(when >= now_);
    HPCCSIM_EXPECTS(static_cast<bool>(fn));
    const std::uint32_t slot = store_call(std::move(fn));
    queue_.push({when.picoseconds(), next_seq_++, call_payload(slot)});
    ++calls_scheduled_;
    note_queue_depth();
  }

  /// Schedule `fn` at `when`, taking the (time, sequence) place it would
  /// have had if scheduled during instant `at`: the call is held aside
  /// and enters the queue just before the engine dispatches its first
  /// event later than `at` (so after every event at `at`, before every
  /// later one). The parallel nx engine's coordinator uses this to insert
  /// a delivery whose sending instant the band has not reached yet
  /// (docs/MODEL.md §15). Counts once in calls_scheduled().
  void schedule_call_deferred(Time at, Time when, Callback fn);

  /// Start a root process; it first runs when the engine reaches now().
  ProcessId spawn(Task<void> task, std::string name = "proc");

  /// True once the given root process has returned.
  bool finished(ProcessId pid) const;
  /// Awaitable that completes when the root process returns.
  auto join(ProcessId pid) {
    HPCCSIM_EXPECTS(pid.index < roots_.size());
    return roots_[pid.index]->done.wait();
  }

  /// Run until no events remain. Throws the first process exception, or
  /// DeadlockError if processes remain blocked with an empty queue.
  /// Returns the number of events processed.
  std::uint64_t run();

  /// Run until simulated time reaches `stop` (events at exactly `stop`
  /// are processed). Does not consider blocked processes an error.
  std::uint64_t run_until(Time stop);

  /// Run every event strictly before `end`, then advance the clock to
  /// `end`. The conservative-lookahead window primitive of the parallel
  /// engine (src/nx/parallel_engine.*): blocked processes are not an
  /// error here — they are usually waiting on a cross-band message that
  /// arrives in a later window.
  std::uint64_t run_window(Time end);

  /// Sentinel for next_event_time_ps() on an empty queue.
  static constexpr std::int64_t kNoPendingEvent =
      std::numeric_limits<std::int64_t>::max();

  /// Picosecond timestamp of the earliest pending event, held deferred
  /// calls included, or kNoPendingEvent.
  std::int64_t next_event_time_ps() const;

  /// Timestamp of the last event dispatched by run_window (run_window
  /// overshoots now() to the window edge; the parallel engine needs the
  /// true final event time to end the run where the sequential engine
  /// would).
  std::int64_t last_window_event_ps() const { return last_window_event_ps_; }

  /// Appends " name" for each root that never finished — the parallel
  /// engine's aggregate deadlock check mirrors run()'s message across
  /// band engines.
  void append_unfinished_names(std::string& out) const;

  /// Awaitable: suspend the current process for `dt` of simulated time.
  DelayAwaiter delay(Time dt) { return DelayAwaiter{this, dt}; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t live_process_count() const;

  // Engine-level observability (src/obs pulls these into its registry):
  // total schedule_call invocations, the deepest the event queue ever
  // got, and the callback-slot pool's high-water mark. Counting costs
  // one increment/compare per push — in the measurement noise next to
  // the queue operation itself.
  std::uint64_t calls_scheduled() const { return calls_scheduled_; }
  std::uint64_t peak_queue_depth() const { return peak_queue_depth_; }
  std::size_t call_slot_high_water() const { return call_slots_.size(); }

  /// Safety valve against runaway simulations (0 = unlimited).
  void set_max_events(std::uint64_t n) { max_events_ = n; }

 private:
  friend class Trigger;

  struct Root;
  // Fire-and-forget wrapper coroutine that drives a root Task and records
  // completion / errors in its Root record.
  struct RootCoro {
    struct promise_type {
      RootCoro get_return_object() {
        return RootCoro{
            std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_always final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception();
      static void* operator new(std::size_t n) {
        return detail::FrameArena::allocate(n);
      }
      static void operator delete(void* p) noexcept {
        detail::FrameArena::deallocate(p);
      }
      static void operator delete(void* p, std::size_t) noexcept {
        detail::FrameArena::deallocate(p);
      }
      Root* root = nullptr;
    };
    std::coroutine_handle<promise_type> handle;
  };

  struct Root {
    std::string name;
    Trigger done;
    Engine* engine;  ///< for the pending-error count (unhandled_exception)
    bool finished = false;
    std::exception_ptr error;
    std::coroutine_handle<RootCoro::promise_type> frame;
    explicit Root(Engine& e, std::string n)
        : name(std::move(n)), done(e), engine(&e) {}
  };

  static RootCoro run_root(Root* root, Task<void> task);
  void dispatch(const detail::QEvent& ev);
  /// Where dispatch_loop stops: only on an empty queue (run), after
  /// `limit` (run_until) or at `limit` (run_window).
  enum class StopEdge : std::uint8_t { None, Inclusive, Exclusive };
  /// The loop behind run, run_until and run_window: release held calls
  /// against `limit`, then dispatch events up to the stop edge,
  /// enforcing max_events. Returns the number of events dispatched.
  template <StopEdge kEdge>
  std::uint64_t dispatch_loop(std::uint64_t limit);
  /// Called once per dispatched event: O(1) when no process has failed
  /// (the common case — unhandled_exception counts pending errors), so
  /// the per-event cost no longer scales with the number of roots.
  void check_errors() {
    if (pending_errors_ == 0) return;
    rethrow_pending_error();
  }
  void rethrow_pending_error();
  void note_queue_depth() {
    if (queue_.size() > peak_queue_depth_)
      peak_queue_depth_ = queue_.size();
  }
  std::uint32_t store_call(Callback&& fn) {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      call_slots_[slot] = std::move(fn);
      return slot;
    }
    call_slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(call_slots_.size() - 1);
  }
  static std::uintptr_t call_payload(std::uint32_t slot) {
    return (static_cast<std::uintptr_t>(slot) << 1) | 1;
  }
  /// Payload bit 1 marks a Waker (bit 0 clear); coroutine frames and
  /// Wakers are at least 4-aligned, so neither address uses it.
  static constexpr std::uintptr_t kWakeBit = 2;
  static_assert(alignof(Waker) >= 4);
  /// Queue every held call whose `at` precedes both the next queued
  /// event and `limit` (the first instant the caller will not dispatch).
  void release_held(std::uint64_t limit);

  /// A schedule_call_deferred entry waiting for the engine to pass `at`.
  struct HeldCall {
    std::uint64_t at;
    std::uint64_t when;
    std::uint32_t slot;
  };

  Time now_ = Time::zero();
  std::int64_t last_window_event_ps_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t max_events_ = 0;
  std::uint64_t calls_scheduled_ = 0;
  std::uint64_t peak_queue_depth_ = 0;
  std::uint32_t pending_errors_ = 0;
  detail::EventQueue queue_;
  // Callback storage: events reference slots by index so queue records
  // stay POD; freed slots are recycled newest-first (cache-warm).
  std::vector<Callback> call_slots_;
  std::vector<std::uint32_t> free_slots_;
  // Deferred calls, sorted by `at` (call order among equal instants).
  // Sequential runs never hold any: their cost is one empty() test per
  // dispatched event.
  std::vector<HeldCall> held_;
  std::vector<std::unique_ptr<Root>> roots_;
};

inline void DelayAwaiter::await_suspend(std::coroutine_handle<> h) const {
  e->schedule(e->now() + dt, h);
}
static_assert(std::is_trivially_destructible_v<DelayAwaiter> &&
              sizeof(DelayAwaiter) <= 16);

/// Thrown when all events drain but some process never finished — i.e. a
/// recv with no matching send, a barrier someone never reached, etc.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

namespace detail {
/// Shared settle flag for two-way races (timer vs trigger, trigger vs
/// trigger). Heap-shared so the losing path can observe that the race is
/// over even after the winning path resumed (and possibly destroyed) the
/// waiting coroutine.
struct RaceState {
  bool settled = false;
  bool first_won = false;
};
}  // namespace detail

/// Awaitable: suspend for `dt` of simulated time, unless `abort` fires
/// first. await_resume() returns true when the full delay elapsed, false
/// when the abort won (the waiter resumes at the abort instant). Ties at
/// the same instant go to the timer (it was scheduled first).
inline auto abortable_delay(Engine& e, Time dt, Trigger& abort) {
  struct Awaiter {
    Engine* e;
    Time dt;
    Trigger* abort;
    std::shared_ptr<detail::RaceState> st;

    bool await_ready() const noexcept { return abort->fired(); }
    void await_suspend(std::coroutine_handle<> h) {
      st = std::make_shared<detail::RaceState>();
      e->schedule_call(e->now() + dt, [s = st, h] {
        if (s->settled) return;
        s->settled = true;
        s->first_won = true;
        h.resume();
      });
      abort->on_fire([s = st, h] {
        if (s->settled) return;
        s->settled = true;
        h.resume();
      });
    }
    bool await_resume() const noexcept { return st ? st->first_won : false; }
  };
  return Awaiter{&e, dt, &abort, nullptr};
}

/// Awaitable: suspend until either trigger fires; returns true if `a`
/// won (or had already fired — `a` wins ready-state ties).
inline auto race_triggers(Trigger& a, Trigger& b) {
  struct Awaiter {
    Trigger* a;
    Trigger* b;
    std::shared_ptr<detail::RaceState> st;

    bool await_ready() const noexcept { return a->fired() || b->fired(); }
    void await_suspend(std::coroutine_handle<> h) {
      st = std::make_shared<detail::RaceState>();
      a->on_fire([s = st, h] {
        if (s->settled) return;
        s->settled = true;
        s->first_won = true;
        h.resume();
      });
      b->on_fire([s = st, h] {
        if (s->settled) return;
        s->settled = true;
        h.resume();
      });
    }
    bool await_resume() const noexcept {
      return st ? st->first_won : a->fired();
    }
  };
  return Awaiter{&a, &b, nullptr};
}

}  // namespace hpccsim::sim
