// Host-thread synchronization for conservatively-synchronized parallel
// simulation cores: the flit network's row bands
// (src/mesh/flit_parallel.cpp) and the nx engine's rank bands
// (src/nx/parallel_engine.cpp).
//
// Coroutine awaitables (delay, Trigger) synchronize *simulated*
// processes inside one single-threaded Engine; this header is the host
// side: real threads pipelining shards of one simulation. Three pieces:
//
//   - ProgressCounter: a monotone per-shard clock. The owner publishes
//     "I have completed cycle c" with release semantics; neighbours
//     await a target cycle with acquire semantics, so every plain
//     (non-atomic) write the owner made up to that cycle is visible to
//     the waiter — shard handoff buffers and credit counters need no
//     atomics of their own.
//   - BurstGate: a fork-join gate for a persistent worker pool. The
//     coordinator publishes one command per burst (generation counter),
//     workers wait on the generation between bursts, and the
//     coordinator joins on a completion count.
//   - WorkerPool: the one process-wide set of worker threads both
//     sharded engines run their bands on, driven through a BurstGate.
//
// Every waiter spins for a bounded budget (PAUSEs, every 16th round a
// yield) before it parks on the futex (spin_then_park): shard pipelines
// advance in microseconds when balanced, so the fast path must not enter
// the kernel, but on oversubscribed hosts (hardware_concurrency <
// workers) unbounded spinning would starve the very thread being waited
// on. A parked waiter costs nothing until it is woken.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hpccsim {

/// One spin-loop pause. On x86 this is the PAUSE hint; elsewhere a
/// compiler barrier keeps the load in the loop honest.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Wait until `ready(v)` holds for v = a.load(acquire): spin for up to
/// `spins` rounds, then park on the futex until it holds. Every 16th
/// round yields the CPU instead of pausing, so a spinning waiter that
/// the scheduler put on the same CPU as the thread it waits for lets
/// that thread run (a pure PAUSE spin there costs its whole budget on
/// every hand-off). Leaves the value that satisfied `ready` in `v` and
/// returns the number of futex parks taken (0 when the first load or
/// the spin saw it).
template <class T, class Ready>
std::int64_t spin_then_park(const std::atomic<T>& a, T& v, int spins,
                            Ready ready) {
  v = a.load(std::memory_order_acquire);
  for (int spin = 1; spin <= spins && !ready(v); ++spin) {
    if (spin % 16 == 0)
      std::this_thread::yield();
    else
      cpu_relax();
    v = a.load(std::memory_order_acquire);
  }
  std::int64_t parks = 0;
  while (!ready(v)) {
    ++parks;
    a.wait(v, std::memory_order_acquire);
    v = a.load(std::memory_order_acquire);
  }
  return parks;
}

/// Monotone published clock: one writer, any number of waiters.
class ProgressCounter {
 public:
  /// Non-publishing reset (coordinator only, between commands, while
  /// no band awaits this counter).
  void reset(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }

  /// Publish completion of `v` (release) and wake parked waiters.
  void publish(std::int64_t v) {
    v_.store(v, std::memory_order_release);
    v_.notify_all();
  }

  std::int64_t current() const { return v_.load(std::memory_order_acquire); }

  /// Block until the published value reaches `target`. Returns the
  /// number of futex parks taken (0 on the spin fast path) so callers
  /// can account wait pressure (mesh.flit.shard.barrier_waits).
  std::int64_t await(std::int64_t target) {
    std::int64_t v = 0;
    return spin_then_park(v_, v, kSpins,
                          [target](std::int64_t c) { return c >= target; });
  }

  /// Spin budget in rounds: 120 PAUSEs (~2.7 us on a 4-vCPU Xeon host,
  /// ~22 ns each) and 8 yields. Flit bands await their neighbours once
  /// per cycle, so a longer spin burns CPU a parked waiter would leave to
  /// the band it waits for: in a prototype at the gate's 1024,
  /// flit_columbia_t4 cpu_s rose 8.8% and wall_s 3.2% (worse in 4 of 4
  /// alternated pairs).
  static constexpr int kSpins = 128;

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fork-join gate for a persistent pool: the coordinator issues
/// numbered commands, workers execute one command per generation and
/// check in; the coordinator joins on the check-in count.
class BurstGate {
 public:
  /// Coordinator: publish the next command generation (any plain data
  /// the workers will read must be written before this call).
  void issue() {
    done_.store(0, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_acq_rel);
    gen_.notify_all();
  }

  /// Worker: wait until the generation moves past `seen`; returns the
  /// new generation to remember. Workers that sat out the last command
  /// spin too, which checks them in sooner; no engine run measured
  /// slower for it on a 4-vCPU host. Bands that each stay busy for
  /// 20-100 us per command can lose CPU to idle workers on a full host:
  /// a synthetic timer with 4 such bands and 3 idle workers took up to
  /// twice as long per command in some runs (docs/PERF.md, "Idle
  /// workers").
  std::uint64_t await_command(std::uint64_t seen) {
    std::uint64_t g = 0;
    spin_then_park(gen_, g, kSpins,
                   [seen](std::uint64_t v) { return v != seen; });
    return g;
  }

  /// Worker: check in after finishing the current command.
  void complete() {
    done_.fetch_add(1, std::memory_order_release);
    done_.notify_all();
  }

  /// Coordinator: block until `workers` check-ins for this command.
  void join(int workers) {
    int d = 0;
    spin_then_park(done_, d, kSpins, [workers](int v) { return v >= workers; });
  }

  /// Spin budget in rounds: 960 PAUSEs (~21 us on a 4-vCPU Xeon host,
  /// ~22 ns each) and 64 yields (~0.37 us each when no other thread
  /// wants the CPU), from the columbia_lu_t4 sweep in docs/PERF.md
  /// ("Parallel nx engine"). A sharded Delta LU window does ~2 us of
  /// event work; a gate that parks at once adds a futex wake-up on each
  /// side of every window, ~14 us in all, while a budget that outlasts
  /// the coordinator's serial step between windows keeps both sides out
  /// of the kernel.
  static constexpr int kSpins = 1024;

 private:
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<int> done_{0};
};

/// Persistent process-wide worker pool shared by the sharded engines.
/// Workers are created on demand, wait on a BurstGate between commands
/// and live until process exit.
///
/// A run takes the pool with acquire() and keeps it until the returned
/// lock is released, so concurrent runs (util/parallel.hpp sweep points
/// that each run a sharded engine) queue instead of interleaving
/// commands. Within a run, band 0 executes on the calling thread and
/// band i on worker i-1 for every command: a band engine is destroyed on
/// the thread whose FrameArena allocated its coroutine frames.
class WorkerPool {
 public:
  static WorkerPool& instance();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Take the pool for one run of up to `bands` bands, growing it to
  /// bands-1 workers. A new worker starts at the current command
  /// generation, so it never executes a command issued before it
  /// existed.
  [[nodiscard]] std::unique_lock<std::mutex> acquire(int bands);

  /// Run fn(i) for every band i in [0, bands), band 0 on this thread,
  /// and return once all have finished. fn must not throw. Call only
  /// while holding acquire(n) with n >= bands; workers beyond `bands`
  /// check in without running anything.
  template <class Fn>
  void dispatch(int bands, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    const Task task = [](void* f, int band) { (*static_cast<F*>(f))(band); };
    run_command(bands, task, &fn);
  }

 private:
  using Task = void (*)(void*, int);

  WorkerPool() = default;
  ~WorkerPool();
  void run_command(int bands, Task task, void* fn);
  void worker_main(int index, std::uint64_t seen);

  BurstGate gate_;
  std::atomic<bool> exit_{false};
  // Held by the run in progress, the only writer of the fields below.
  std::mutex mu_;
  // The current command, written before each gate_.issue().
  Task task_ = nullptr;
  void* fn_ = nullptr;
  int bands_ = 0;
  std::uint64_t issued_ = 0;  ///< commands issued (mirrors gate gen)
  std::vector<std::thread> threads_;  ///< worker i runs band i+1
};

}  // namespace hpccsim
