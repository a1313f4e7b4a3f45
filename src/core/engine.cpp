#include "core/engine.hpp"

#include <algorithm>
#include <sstream>

namespace hpccsim::sim {

void Trigger::fire() {
  if (fired_) return;
  fired_ = true;
  // Release through the event queue (at the current instant) rather than
  // resuming inline: keeps the execution stack flat and the event order
  // a single deterministic stream. The waiter vector is move-swapped out
  // first so a waiter that re-arms (or a wait() racing the fire) never
  // invalidates the iteration, and its capacity is recycled afterwards.
  std::vector<std::coroutine_handle<>> firing;
  firing.swap(waiters_);
  for (auto h : firing) engine_->schedule(engine_->now(), h);
  firing.clear();
  if (waiters_.empty()) waiters_.swap(firing);
  std::vector<Callback> cbs;
  cbs.swap(fire_callbacks_);
  for (auto& cb : cbs) engine_->schedule_call(engine_->now(), std::move(cb));
}

void Trigger::on_fire(Callback cb) {
  HPCCSIM_EXPECTS(static_cast<bool>(cb));
  if (fired_) {
    engine_->schedule_call(engine_->now(), std::move(cb));
  } else {
    fire_callbacks_.push_back(std::move(cb));
  }
}

Engine::~Engine() {
  // Drop pending events first (callback captures may reference coroutine
  // frames), then destroy root frames. Child Task frames are owned by
  // their parents' stack frames inside the root coroutine, so destroying
  // the root frame unwinds the whole tree.
  queue_.clear();
  call_slots_.clear();
  free_slots_.clear();
  for (auto& r : roots_) {
    if (r->frame) r->frame.destroy();
  }
}

void Engine::RootCoro::promise_type::unhandled_exception() {
  root->error = std::current_exception();
  ++root->engine->pending_errors_;
}

Engine::RootCoro Engine::run_root(Root* root, Task<void> task) {
  co_await std::move(task);
  // Completion bookkeeping happens here, inside the coroutine, so that it
  // also runs when the body exits via exception (see unhandled_exception:
  // the error is recorded, then final_suspend still marks us finished via
  // the dispatch path below — so record it in both paths).
  root->finished = true;
  root->done.fire();
}

ProcessId Engine::spawn(Task<void> task, std::string name) {
  HPCCSIM_EXPECTS(task.valid());
  auto root = std::make_unique<Root>(*this, std::move(name));
  RootCoro coro = run_root(root.get(), std::move(task));
  coro.handle.promise().root = root.get();
  root->frame = coro.handle;
  schedule(now_, coro.handle);
  roots_.push_back(std::move(root));
  return ProcessId{static_cast<std::uint32_t>(roots_.size() - 1)};
}

bool Engine::finished(ProcessId pid) const {
  HPCCSIM_EXPECTS(pid.index < roots_.size());
  return roots_[pid.index]->finished;
}

std::size_t Engine::live_process_count() const {
  std::size_t n = 0;
  for (const auto& r : roots_)
    if (!r->finished && !r->error) ++n;
  return n;
}

void Engine::dispatch(const detail::QEvent& ev) {
  now_ = Time::ps(ev.when);
  ++events_processed_;
  if (ev.payload & 1) {
    const auto slot = static_cast<std::uint32_t>(ev.payload >> 1);
    // Move the callback out before invoking it: the body may itself
    // schedule_call, which can reuse or grow the slot pool.
    Callback fn = std::move(call_slots_[slot]);
    free_slots_.push_back(slot);
    fn();
  } else if (ev.payload & kWakeBit) {
    reinterpret_cast<Waker*>(ev.payload & ~kWakeBit)->wake();
  } else {
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(ev.payload))
        .resume();
  }
}

void Engine::rethrow_pending_error() {
  for (const auto& r : roots_) {
    if (r->error) {
      auto err = r->error;
      r->error = nullptr;  // report once
      --pending_errors_;
      std::rethrow_exception(err);
    }
  }
}

void Engine::schedule_call_deferred(Time at, Time when, Callback fn) {
  HPCCSIM_EXPECTS(at >= now_);
  HPCCSIM_EXPECTS(when >= at);
  HPCCSIM_EXPECTS(static_cast<bool>(fn));
  const HeldCall h{at.picoseconds(), when.picoseconds(),
                   store_call(std::move(fn))};
  held_.insert(std::upper_bound(held_.begin(), held_.end(), h.at,
                                [](std::uint64_t t, const HeldCall& x) {
                                  return t < x.at;
                                }),
               h);
  ++calls_scheduled_;
}

void Engine::release_held(std::uint64_t limit) {
  // A held call's sequence number is assigned here, once no event at or
  // before its `at` remains to dispatch — exactly where a schedule_call
  // made during instant `at` would have placed it. Releasing against
  // `limit` is safe too: the caller dispatches nothing at or after it
  // now, and later deferrals need `at >= now() >= limit`.
  std::size_t n = 0;
  for (; n < held_.size(); ++n) {
    const std::uint64_t next =
        queue_.empty() ? limit : std::min(queue_.top().when, limit);
    if (held_[n].at >= next) break;
    queue_.push({held_[n].when, next_seq_++, call_payload(held_[n].slot)});
  }
  if (n == 0) return;
  held_.erase(held_.begin(), held_.begin() + static_cast<std::ptrdiff_t>(n));
  note_queue_depth();
}

std::int64_t Engine::next_event_time_ps() const {
  std::int64_t t = queue_.empty()
                       ? kNoPendingEvent
                       : static_cast<std::int64_t>(queue_.top().when);
  for (const HeldCall& h : held_)
    t = std::min(t, static_cast<std::int64_t>(h.when));
  return t;
}

template <Engine::StopEdge kEdge>
std::uint64_t Engine::dispatch_loop(std::uint64_t limit) {
  const std::uint64_t start = events_processed_;
  for (;;) {
    if (!held_.empty()) release_held(limit);
    if (queue_.empty()) break;
    if constexpr (kEdge == StopEdge::Inclusive) {
      if (queue_.top().when > limit) break;
    } else if constexpr (kEdge == StopEdge::Exclusive) {
      if (queue_.top().when >= limit) break;
    }
    dispatch(queue_.pop());
    check_errors();
    if (max_events_ && events_processed_ - start >= max_events_)
      throw std::runtime_error("engine exceeded max_events limit");
  }
  return events_processed_ - start;
}

std::uint64_t Engine::run() {
  constexpr auto kNoLimit = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t n = dispatch_loop<StopEdge::None>(kNoLimit);
  if (live_process_count() > 0) {
    std::ostringstream os;
    os << "deadlock: event queue empty but " << live_process_count()
       << " process(es) still blocked:";
    for (const auto& r : roots_)
      if (!r->finished) os << ' ' << r->name;
    throw DeadlockError(os.str());
  }
  return n;
}

std::uint64_t Engine::run_until(Time stop) {
  const auto n = dispatch_loop<StopEdge::Inclusive>(stop.picoseconds());
  now_ = std::max(now_, stop);
  return n;
}

std::uint64_t Engine::run_window(Time end) {
  const auto n = dispatch_loop<StopEdge::Exclusive>(end.picoseconds());
  if (n != 0) last_window_event_ps_ = now_.picoseconds();
  // Advance to the window edge: the coordinator defers every delivery to
  // a departure at or after it (docs/MODEL.md §15).
  now_ = std::max(now_, end);
  return n;
}

void Engine::append_unfinished_names(std::string& out) const {
  for (const auto& r : roots_)
    if (!r->finished) {
      out += ' ';
      out += r->name;
    }
}

}  // namespace hpccsim::sim
