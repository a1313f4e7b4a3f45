// Task<T>: the coroutine type for simulated processes.
//
// A Task is lazy: nothing runs until it is co_awaited (or spawned on the
// Engine as a root process). Completion resumes the awaiting coroutine by
// symmetric transfer, so arbitrarily deep call chains cost no stack and
// re-enter the scheduler only at genuine suspension points (delays,
// message waits).
//
// Ownership: the Task object owns the coroutine frame. A parent's
// co_await keeps the Task alive across the child's lifetime; the frame is
// destroyed when the Task goes out of scope after completion. Root
// processes are owned by the Engine (see engine.hpp).
//
// CODING RULE (GCC 12 wrong-code bug): never materialize an extra
// temporary with a destructor — in particular a `?:` expression — inside
// a co_await'ed call:
//
//   co_await f(cond ? sp : SP{});      // BROKEN: temporary destroyed twice
//   SP arg; if (cond) arg = sp;
//   co_await f(std::move(arg));        // OK
//
// Plain lvalue, moved, and prvalue arguments are all safe (verified by
// the nx test suite); only additionally-materialized temporaries in the
// awaited full expression are miscompiled by GCC 12.
//
// The awaiters NxContext's leaf ops (send, recv, compute, busy) return
// are trivially destructible, so the awaited object itself has no
// destructor to run twice; their arguments still follow the rule (GCC 12
// miscompiles the awaiting coroutine, whatever the callee is).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "core/frame_arena.hpp"
#include "util/assert.hpp"

namespace hpccsim::sim {

template <class T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;  // who to resume when we finish
  std::exception_ptr error;

  // Coroutine frames are the simulator's hottest allocation: route them
  // through the thread-local frame arena instead of the global heap.
  // Frames must be destroyed on the thread that created them (they
  // always are — an Engine and its processes live on one thread).
  static void* operator new(std::size_t n) {
    return FrameArena::allocate(n);
  }
  static void operator delete(void* p) noexcept { FrameArena::deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    FrameArena::deallocate(p);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <class P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { error = std::current_exception(); }
};

template <class T>
struct Promise : PromiseBase {
  // Storage for the result; default-constructed then assigned. T must be
  // default-constructible and movable, which holds for all uses here.
  T value{};
  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

template <class T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_ && h_.done(); }

  /// Awaiting a Task starts it (symmetric transfer) and resumes the
  /// awaiter on completion, returning the value / rethrowing the error.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        h.promise().continuation = awaiting;
        return h;  // start the child now
      }
      T await_resume() {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
        if constexpr (!std::is_void_v<T>) return std::move(h.promise().value);
      }
    };
    return Awaiter{h_};
  }

  /// For the Engine: start/resume the coroutine directly.
  Handle handle() const { return h_; }
  /// For the Engine: release ownership of the frame.
  Handle release() { return std::exchange(h_, {}); }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_{};
};

namespace detail {
template <class T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}
inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}
}  // namespace detail

}  // namespace hpccsim::sim
