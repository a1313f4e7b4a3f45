// Channel<T>: an unbounded, single-threaded async queue connecting
// simulated processes. push() never blocks; pop() suspends until an item
// is available. Wakeups go through the engine's event queue so ordering
// stays deterministic.
//
// Items are matched to receivers 1:1 in FIFO order: a push that wakes a
// waiter *reserves* the item for it, so a fast path pop() arriving before
// the waiter resumes cannot steal it.
#pragma once

#include <coroutine>
#include <deque>
#include <utility>

#include "core/engine.hpp"
#include "util/assert.hpp"

namespace hpccsim::sim {

template <class T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(&engine) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Deposit an item; wakes the longest-waiting receiver, if any.
  void push(T item) {
    items_.push_back(std::move(item));
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      ++reserved_;  // this item now belongs to the woken waiter
      engine_->schedule(engine_->now(), h);
    }
  }

  /// Awaitable receive.
  auto pop() {
    struct Awaiter {
      Channel* ch;
      bool suspended = false;
      bool await_ready() const noexcept {
        // Fast path only when there is an unreserved item and nobody is
        // queued ahead of us.
        return ch->waiters_.empty() && ch->items_.size() > ch->reserved_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        suspended = true;
        ch->waiters_.push_back(h);
      }
      T await_resume() {
        if (suspended) {
          // We were woken by a push that reserved an item for us.
          HPCCSIM_ASSERT(ch->reserved_ > 0);
          --ch->reserved_;
        }
        HPCCSIM_ASSERT(!ch->items_.empty());
        T item = std::move(ch->items_.front());
        ch->items_.pop_front();
        return item;
      }
    };
    return Awaiter{this};
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

 private:
  Engine* engine_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
  // Items already promised to woken-but-not-yet-resumed waiters.
  std::size_t reserved_ = 0;
};

}  // namespace hpccsim::sim
