// Tests for the discrete-event engine: time arithmetic, event ordering,
// coroutine processes, triggers, channels, determinism, and failure modes
// (deadlock detection, exception propagation).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/task.hpp"
#include "core/time.hpp"

namespace hpccsim::sim {
namespace {

// ---------------------------------------------------------------- Time --

TEST(Time, UnitConstructorsAgree) {
  EXPECT_EQ(Time::ns(1).picoseconds(), 1000u);
  EXPECT_EQ(Time::us(1).picoseconds(), 1'000'000u);
  EXPECT_EQ(Time::ms(1).picoseconds(), 1'000'000'000u);
  EXPECT_EQ(Time::sec(1).picoseconds(), 1'000'000'000'000u);
}

TEST(Time, ArithmeticAndComparison) {
  const Time a = Time::us(2), b = Time::us(3);
  EXPECT_EQ((a + b).as_us(), 5.0);
  EXPECT_EQ((b - a).as_us(), 1.0);
  EXPECT_LT(a, b);
  EXPECT_EQ(a * 4, Time::us(8));
  EXPECT_THROW(a - b, ContractError);
}

TEST(Time, RoundsToNearestPicosecond) {
  EXPECT_EQ(Time::ns(0.0004).picoseconds(), 0u);
  EXPECT_EQ(Time::ns(0.0006).picoseconds(), 1u);
}

TEST(Time, RejectsDoublesWithNoPicosecondCount) {
  EXPECT_THROW(Time::sec(std::numeric_limits<double>::quiet_NaN()),
               ContractError);
  // Tiny negatives round to zero; anything rounding below zero throws.
  EXPECT_EQ(Time::ns(-0.0004).picoseconds(), 0u);
  EXPECT_THROW(Time::ns(-0.0006), ContractError);
  EXPECT_THROW(Time::sec(-1.0), ContractError);
  // 2^64 ps (~213.5 days) and beyond do not fit in uint64_t.
  EXPECT_EQ(Time::sec(18446744.0).picoseconds(), 18446744000000000000u);
  EXPECT_THROW(Time::sec(18446744.073709551616), ContractError);
  EXPECT_THROW(Time::sec(std::numeric_limits<double>::infinity()),
               ContractError);
}

TEST(Time, ArithmeticThrowsInsteadOfWrappingAtTheCeiling) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ((Time::ps(kMax - 1) + Time::ps(1)).picoseconds(), kMax);
  EXPECT_THROW(Time::ps(kMax) + Time::ps(1), ContractError);
  Time t = Time::ps(kMax);
  EXPECT_THROW(t += Time::ps(1), ContractError);
  EXPECT_EQ(t.picoseconds(), kMax);  // a failed += leaves t unchanged
  EXPECT_EQ((Time::ps((1ull << 63) - 1) * 2).picoseconds(), kMax - 1);
  EXPECT_THROW(Time::ps(1ull << 63) * 2, ContractError);
  EXPECT_THROW(2 * Time::ps(1ull << 63), ContractError);
}

TEST(Time, FormatsHumanReadable) {
  EXPECT_EQ(Time::sec(1.5).str(), "1.5 s");
  EXPECT_EQ(Time::us(75).str(), "75 us");
  EXPECT_EQ(Time::ps(3).str(), "3 ps");
}

// -------------------------------------------------------------- Engine --

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), Time::zero());
  EXPECT_EQ(e.run(), 0u);
}

TEST(Engine, DelayAdvancesTime) {
  Engine e;
  Time observed = Time::zero();
  e.spawn([](Engine& eng, Time& out) -> Task<> {
    co_await eng.delay(Time::us(10));
    out = eng.now();
  }(e, observed));
  e.run();
  EXPECT_EQ(observed, Time::us(10));
}

TEST(Engine, EventsAtSameTimeRunInSpawnOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn([](Engine& eng, std::vector<int>& o, int id) -> Task<> {
      co_await eng.delay(Time::us(1));
      o.push_back(id);
    }(e, order, i));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, InterleavesByTimestamp) {
  Engine e;
  std::vector<std::pair<std::string, double>> log;
  auto proc = [](Engine& eng, std::vector<std::pair<std::string, double>>& l,
                 std::string name, Time step, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      co_await eng.delay(step);
      l.emplace_back(name, eng.now().as_us());
    }
  };
  e.spawn(proc(e, log, "fast", Time::us(2), 3));
  e.spawn(proc(e, log, "slow", Time::us(3), 2));
  e.run();
  // Tie at t=6: "slow" armed its timer at t=3, before "fast" did at t=4,
  // so the engine's (time, schedule-sequence) order runs "slow" first.
  const std::vector<std::pair<std::string, double>> expected = {
      {"fast", 2}, {"slow", 3}, {"fast", 4}, {"slow", 6}, {"fast", 6}};
  EXPECT_EQ(log, expected);
}

TEST(Engine, NestedTaskCallsReturnValues) {
  Engine e;
  int result = 0;

  struct Helper {
    static Task<int> leaf(Engine& eng) {
      co_await eng.delay(Time::us(1));
      co_return 21;
    }
    static Task<int> mid(Engine& eng) {
      const int a = co_await leaf(eng);
      const int b = co_await leaf(eng);
      co_return a + b;
    }
  };
  e.spawn([](Engine& eng, int& out) -> Task<> {
    out = co_await Helper::mid(eng);
  }(e, result));
  e.run();
  EXPECT_EQ(result, 42);
}

TEST(Engine, JoinWaitsForProcessCompletion) {
  Engine e;
  Time join_time = Time::zero();
  const ProcessId worker = e.spawn([](Engine& eng) -> Task<> {
    co_await eng.delay(Time::ms(5));
  }(e), "worker");
  e.spawn([](Engine& eng, ProcessId w, Time& out) -> Task<> {
    co_await eng.join(w);
    out = eng.now();
  }(e, worker, join_time));
  e.run();
  EXPECT_EQ(join_time, Time::ms(5));
  EXPECT_TRUE(e.finished(worker));
}

TEST(Engine, RunUntilStopsMidSimulation) {
  Engine e;
  int ticks = 0;
  e.spawn([](Engine& eng, int& t) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await eng.delay(Time::ms(1));
      ++t;
    }
  }(e, ticks));
  e.run_until(Time::ms(3));
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(e.now(), Time::ms(3));
  e.run();
  EXPECT_EQ(ticks, 10);
}

TEST(Engine, PropagatesProcessExceptions) {
  Engine e;
  e.spawn([](Engine& eng) -> Task<> {
    co_await eng.delay(Time::us(1));
    throw std::runtime_error("boom");
  }(e), "failing");
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, DetectsDeadlock) {
  Engine e;
  // A process waiting on a trigger nobody fires.
  auto trigger = std::make_unique<Trigger>(e);
  e.spawn([](Trigger& t) -> Task<> { co_await t.wait(); }(*trigger),
          "stuck");
  EXPECT_THROW(e.run(), DeadlockError);
}

TEST(Engine, MaxEventsGuardTrips) {
  Engine e;
  e.set_max_events(100);
  e.spawn([](Engine& eng) -> Task<> {
    for (;;) co_await eng.delay(Time::ns(1));
  }(e), "runaway");
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, MaxEventsGuardBoundsRunUntilAndRunWindow) {
  const auto runaway = [](Engine& eng) -> Task<> {
    for (;;) co_await eng.delay(Time::ns(1));
  };
  Engine until;
  until.set_max_events(100);
  until.spawn(runaway(until), "runaway");
  EXPECT_THROW(until.run_until(Time::ms(1)), std::runtime_error);
  EXPECT_EQ(until.events_processed(), 100u);

  Engine window;
  window.set_max_events(100);
  window.spawn(runaway(window), "runaway");
  EXPECT_THROW(window.run_window(Time::ms(1)), std::runtime_error);
  EXPECT_EQ(window.events_processed(), 100u);

  // The limit counts events per call: a bounded call under it passes.
  Engine bounded;
  bounded.set_max_events(100);
  bounded.spawn(runaway(bounded), "runaway");
  EXPECT_EQ(bounded.run_until(Time::ns(49)), 50u);
  EXPECT_EQ(bounded.run_window(Time::ns(100)), 50u);
}

TEST(Engine, ScheduleCallRunsPlainCallbacks) {
  Engine e;
  std::vector<int> order;
  e.schedule_call(Time::us(2), [&] { order.push_back(2); });
  e.schedule_call(Time::us(1), [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), Time::us(2));
}

// ------------------------------------------------------ deferred calls --
//
// schedule_call_deferred(at, when, fn) must give fn exactly the queue
// place a schedule_call(when, fn) made during instant `at` would have
// had — the parallel nx engine's delivery insertion (docs/MODEL.md §15).

TEST(EngineDeferred, RunsAfterEveryEventAtItsInstant) {
  Engine e;
  std::vector<int> order;
  e.schedule_call_deferred(Time::us(1), Time::us(1),
                           [&] { order.push_back(9); });
  e.schedule_call(Time::us(1), [&] {
    order.push_back(1);
    e.schedule_call(Time::us(1), [&] { order.push_back(2); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
}

TEST(EngineDeferred, RunsBeforeSameTimeEventsScheduledAfterItsInstant) {
  Engine e;
  std::vector<int> order;
  const Time when = Time::us(5);
  e.schedule_call(when, [&] { order.push_back(0); });
  e.schedule_call_deferred(Time::us(2), when, [&] { order.push_back(9); });
  // Scheduled during instant `at`: ahead of the held call.
  e.schedule_call(Time::us(2), [&] {
    e.schedule_call(when, [&] { order.push_back(1); });
  });
  // Scheduled after instant `at`: behind it.
  e.schedule_call(Time::us(3), [&] {
    e.schedule_call(when, [&] { order.push_back(3); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 3}));
}

TEST(EngineDeferred, CountsOnceAndShowsInNextEventTime) {
  Engine e;
  e.schedule_call(Time::us(10), [] {});
  e.schedule_call_deferred(Time::us(2), Time::us(7), [] {});
  EXPECT_EQ(e.calls_scheduled(), 2u);
  EXPECT_EQ(e.next_event_time_ps(),
            static_cast<std::int64_t>(Time::us(7).picoseconds()));
  e.run();
  EXPECT_EQ(e.calls_scheduled(), 2u);
  EXPECT_EQ(e.events_processed(), 2u);
  EXPECT_EQ(e.next_event_time_ps(), Engine::kNoPendingEvent);
}

TEST(EngineDeferred, RunWindowDispatchesHeldCallsBeforeItsEdge) {
  Engine e;
  int ran = 0;
  e.schedule_call_deferred(Time::us(2), Time::us(3), [&] { ++ran; });
  e.run_window(Time::us(3));  // exactly at the edge: not this window
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(e.next_event_time_ps(),
            static_cast<std::int64_t>(Time::us(3).picoseconds()));
  e.run_window(Time::us(4));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.last_window_event_ps(),
            static_cast<std::int64_t>(Time::us(3).picoseconds()));
}

TEST(EngineDeferred, RejectsPastInstantAndTimeBeforeInstant) {
  Engine e;
  e.schedule_call(Time::ms(5), [] {});
  e.run();
  EXPECT_THROW(e.schedule_call_deferred(Time::ms(1), Time::ms(6), [] {}),
               hpccsim::ContractError);
  EXPECT_THROW(e.schedule_call_deferred(Time::ms(7), Time::ms(6), [] {}),
               hpccsim::ContractError);
  EXPECT_EQ(e.calls_scheduled(), 1u);
}

// ------------------------------------------------------------- Trigger --

TEST(Trigger, ReleasesAllWaiters) {
  Engine e;
  Trigger t(e);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](Trigger& tr, int& r) -> Task<> {
      co_await tr.wait();
      ++r;
    }(t, released));
  }
  e.spawn([](Engine& eng, Trigger& tr) -> Task<> {
    co_await eng.delay(Time::us(7));
    tr.fire();
  }(e, t));
  e.run();
  EXPECT_EQ(released, 3);
}

TEST(Trigger, WaitAfterFireCompletesImmediately) {
  Engine e;
  Trigger t(e);
  t.fire();
  bool done = false;
  e.spawn([](Trigger& tr, bool& d) -> Task<> {
    co_await tr.wait();
    d = true;
  }(t, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), Time::zero());
}

// -------------------------------------------------------- Determinism --

// The same program must produce the identical event count and final time
// on every run: the whole performance-model methodology rests on this.
TEST(Determinism, IdenticalRunsProduceIdenticalTraces) {
  // Eight processes delay on interleaved periods and each hands a value
  // to a shared trace through a plain callback at the current instant,
  // so same-instant wake-ups and callbacks from different processes
  // must keep one order run after run.
  auto run_once = [] {
    Engine e;
    std::vector<double> trace;
    for (int p = 0; p < 8; ++p) {
      e.spawn([](Engine& eng, std::vector<double>& t, int id) -> Task<> {
        for (int i = 0; i < 20; ++i) {
          co_await eng.delay(Time::ns(100 * ((id * 13 + i) % 7 + 1)));
          eng.schedule_call(eng.now(), [en = &eng, tr = &t, id] {
            tr->push_back(en->now().as_ns() + id);
          });
        }
      }(e, trace, p));
    }
    e.run();
    return std::pair(trace, e.events_processed());
  };
  const auto [trace_a, events_a] = run_once();
  const auto [trace_b, events_b] = run_once();
  ASSERT_EQ(trace_a.size(), 160u);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(events_a, events_b);
}

}  // namespace
}  // namespace hpccsim::sim

// --------------------------------------------------- more edge cases --

namespace hpccsim::sim {
namespace {

TEST(TaskErrors, ExceptionPropagatesThroughNestedAwaits) {
  Engine e;
  std::string caught;
  struct Helper {
    static Task<int> leaf(Engine& eng) {
      co_await eng.delay(Time::us(1));
      throw std::runtime_error("deep failure");
    }
    static Task<int> mid(Engine& eng) { co_return co_await leaf(eng); }
  };
  e.spawn([](Engine& eng, std::string& out) -> Task<> {
    try {
      (void)co_await Helper::mid(eng);
    } catch (const std::runtime_error& err) {
      out = err.what();
    }
  }(e, caught));
  e.run();
  EXPECT_EQ(caught, "deep failure");
}

TEST(EngineLifecycle, RunTwiceContinuesFromCurrentTime) {
  Engine e;
  e.spawn([](Engine& eng) -> Task<> {
    co_await eng.delay(Time::ms(1));
  }(e));
  e.run();
  const Time after_first = e.now();
  e.spawn([](Engine& eng) -> Task<> {
    co_await eng.delay(Time::ms(2));
  }(e));
  e.run();
  EXPECT_EQ(e.now(), after_first + Time::ms(2));
}

TEST(EngineContracts, ScheduleInPastRejected) {
  Engine e;
  e.schedule_call(Time::ms(5), [] {});
  e.run();
  EXPECT_THROW(e.schedule_call(Time::ms(1), [] {}),
               hpccsim::ContractError);
}

TEST(EngineContracts, JoinOfUnknownProcessRejected) {
  Engine e;
  e.spawn([](Engine& eng) -> Task<> { co_await eng.delay(Time::us(1)); }(e));
  // Out-of-range pid must fail the precondition, not surface as an
  // unrelated container exception.
  EXPECT_THROW((void)e.join(ProcessId{99}), hpccsim::ContractError);
  EXPECT_THROW((void)e.finished(ProcessId{99}), hpccsim::ContractError);
  e.run();
}

}  // namespace
}  // namespace hpccsim::sim

// ------------------------------------------- event-queue determinism --
//
// The engine (4-ary event heap, inline callbacks, frame arena) must
// preserve the (time, sequence) total order exactly. These workloads mix
// same-instant wake-ups, nanosecond-to-microsecond delays and
// multi-millisecond delays, with pushes interleaved with pops.

namespace hpccsim::sim {
namespace {

struct TraceHash {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

struct MixedRunResult {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  std::uint64_t final_ps = 0;
  bool operator==(const MixedRunResult&) const = default;
};

MixedRunResult run_mixed_workload() {
  Engine e;
  TraceHash trace;

  // Plain callbacks spread from the current instant out to ~3.5 ms.
  for (int i = 0; i < 200; ++i) {
    const Time when = Time::us((37 * i) % 500) + Time::ns(13 * i) +
                      (i % 5 == 0 ? Time::ms(3) : Time::zero());
    e.schedule_call(when, [&e, &trace, i] {
      trace.mix(e.now().picoseconds() ^ static_cast<std::uint64_t>(i));
    });
  }

  // Coroutine processes with step sizes from 50 ns to 2 ms, re-scheduling
  // as they run so pushes interleave with pops.
  Trigger gate(e);
  for (int p = 0; p < 6; ++p) {
    e.spawn([](Engine& eng, TraceHash& t, Trigger& g, int id) -> Task<> {
      const Time steps[] = {Time::ns(50), Time::us(3), Time::us(80),
                            Time::ms(2)};
      for (int i = 0; i < 25; ++i) {
        co_await eng.delay(steps[(id + i) % 4]);
        t.mix(eng.now().picoseconds() * 31 + static_cast<std::uint64_t>(id));
      }
      if (id == 0) g.fire();
    }(e, trace, gate, p));
  }
  e.spawn([](Engine& eng, TraceHash& t, Trigger& g) -> Task<> {
    co_await g.wait();
    t.mix(eng.now().picoseconds() + 0xABCDu);
  }(e, trace, gate));

  e.run();
  return {trace.h, e.events_processed(), e.now().picoseconds()};
}

TEST(Determinism, MixedCoroutineAndCallbackWorkloadRepeatsExactly) {
  const MixedRunResult a = run_mixed_workload();
  const MixedRunResult b = run_mixed_workload();
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_ps, b.final_ps);
  EXPECT_GT(a.events, 300u);  // the workload actually ran
}

}  // namespace
}  // namespace hpccsim::sim

// ------------------------------------------------- parallel sweeps --

#include <cstdio>

#include "util/parallel.hpp"

namespace hpccsim::sim {
namespace {

// One independent Engine per sweep point, exactly like the bench
// harnesses: the rendered rows must be byte-identical at any job count.
// (This test is also the workload for the -DHPCCSIM_SANITIZE=thread CI
// run; see docs/MODEL.md §threading.)
std::vector<std::string> run_sweep(int jobs) {
  const std::size_t n_points = 12;
  std::vector<std::string> rows(n_points);
  parallel_for(n_points, jobs, [&rows](std::size_t i) {
    Engine e;
    std::uint64_t acc = 0;
    for (int p = 0; p < static_cast<int>(i % 3) + 2; ++p) {
      e.spawn([](Engine& eng, std::uint64_t& a, std::size_t pt,
                 int id) -> Task<> {
        for (int k = 0; k < 30; ++k) {
          co_await eng.delay(Time::ns(100 + 37 * ((pt + id + k) % 11)));
          a += eng.now().picoseconds() % 1009;
        }
      }(e, acc, i, p));
    }
    e.run();
    char buf[96];
    std::snprintf(buf, sizeof buf, "point=%zu events=%llu t=%llu acc=%llu",
                  i, static_cast<unsigned long long>(e.events_processed()),
                  static_cast<unsigned long long>(e.now().picoseconds()),
                  static_cast<unsigned long long>(acc));
    rows[i] = buf;
  });
  return rows;
}

TEST(ParallelSweep, RowsIdenticalAtAnyJobCount) {
  const std::vector<std::string> serial = run_sweep(1);
  EXPECT_EQ(serial, run_sweep(8));
  EXPECT_EQ(serial, run_sweep(3));
}

TEST(ParallelSweep, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      parallel_for(8, 4,
                   [](std::size_t i) {
                     if (i == 5) throw std::runtime_error("point failed");
                   }),
      std::runtime_error);
}

TEST(ParallelSweep, ResolveJobsHonorsRequestThenEnv) {
  EXPECT_EQ(resolve_jobs(4), 4);
  EXPECT_GE(resolve_jobs(0), 1);  // env or hardware fallback
}

}  // namespace
}  // namespace hpccsim::sim

// ---------------------------------------------- allocation accounting --
//
// schedule_call with captures <= 48 bytes must not touch the heap: the
// callable lives inline in a recycled slot and the queue record is a
// 24-byte POD. Verified with a counting global operator new.

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Both new and delete are replaced together, so malloc/free pairing is
// consistent; GCC's heuristic only sees the free() half and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hpccsim::sim {
namespace {

TEST(EngineAllocation, SmallCaptureScheduleCallIsAllocationFree) {
  Engine e;
  std::uint64_t sink = 0;
  // Warm-up: grow the slot pool, event heap, and free list so
  // the steady state below reuses existing capacity.
  for (int i = 0; i < 64; ++i)
    e.schedule_call(e.now() + Time::ns(i % 7), [&sink] { ++sink; });
  e.run();

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    struct Capture {
      std::uint64_t* out;
      std::uint64_t a, b, c;
    } cap{&sink, 1u, 2u, static_cast<std::uint64_t>(i)};  // 32 bytes
    e.schedule_call(e.now(), [cap] { *cap.out += cap.a + cap.b + cap.c; });
    e.run();
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(sink, 64u + 1000u * 3u + 999u * 1000u / 2u);
}

// ------------------------------------------ abortable primitives --

TEST(Trigger, OnFireRunsAtFireInstant) {
  Engine e;
  auto fired_at = Time::zero();
  Trigger t(e);
  t.on_fire([&e, &fired_at] { fired_at = e.now(); });
  e.schedule_call(Time::us(7), [&t] { t.fire(); });
  e.run();
  EXPECT_EQ(fired_at, Time::us(7));
}

TEST(Trigger, OnFireAfterFiredRunsAtCurrentInstant) {
  Engine e;
  Trigger t(e);
  t.fire();
  int runs = 0;
  t.on_fire([&runs] { ++runs; });
  e.run();
  EXPECT_EQ(runs, 1);
}

TEST(AbortableDelay, CompletesWhenNotAborted) {
  Engine e;
  Trigger abort(e);
  bool completed = false;
  Time end;
  e.spawn([](Engine& eng, Trigger& a, bool& c, Time& t) -> Task<> {
    c = co_await abortable_delay(eng, Time::us(50), a);
    t = eng.now();
  }(e, abort, completed, end));
  e.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(end, Time::us(50));
}

TEST(AbortableDelay, AbortCutsDelayShort) {
  Engine e;
  Trigger abort(e);
  bool completed = true;
  Time end;
  e.spawn([](Engine& eng, Trigger& a, bool& c, Time& t) -> Task<> {
    c = co_await abortable_delay(eng, Time::us(100), a);
    t = eng.now();
  }(e, abort, completed, end));
  e.schedule_call(Time::us(30), [&abort] { abort.fire(); });
  e.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(end, Time::us(30));
}

TEST(AbortableDelay, AlreadyFiredAbortReturnsImmediately) {
  Engine e;
  Trigger abort(e);
  abort.fire();
  bool completed = true;
  e.spawn([](Engine& eng, Trigger& a, bool& c) -> Task<> {
    c = co_await abortable_delay(eng, Time::us(100), a);
  }(e, abort, completed));
  e.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(e.now(), Time::zero());
}

TEST(RaceTriggers, FirstToFireWins) {
  Engine e;
  Trigger a(e), b(e);
  bool a_won = false;
  e.spawn([](Trigger& x, Trigger& y, bool& won) -> Task<> {
    won = co_await race_triggers(x, y);
  }(a, b, a_won));
  e.schedule_call(Time::us(5), [&b] { b.fire(); });
  e.schedule_call(Time::us(9), [&a] { a.fire(); });
  e.run();
  EXPECT_FALSE(a_won);

  // And the mirror image: `a` first.
  Engine e2;
  Trigger a2(e2), b2(e2);
  bool a2_won = false;
  e2.spawn([](Trigger& x, Trigger& y, bool& won) -> Task<> {
    won = co_await race_triggers(x, y);
  }(a2, b2, a2_won));
  e2.schedule_call(Time::us(5), [&a2] { a2.fire(); });
  e2.run();
  EXPECT_TRUE(a2_won);
}

TEST(EngineAllocation, OversizedCaptureStillWorks) {
  Engine e;
  std::uint64_t sink = 0;
  struct Big {
    std::uint64_t v[9];  // 72 bytes > 48: falls back to one heap box
  } big{};
  big.v[8] = 7;
  e.schedule_call(Time::us(1), [&sink, big] { sink = big.v[8]; });
  e.run();
  EXPECT_EQ(sink, 7u);
}

}  // namespace
}  // namespace hpccsim::sim

// ---------------------------------------------------------- event queue --
//
// EventQueue against a std::priority_queue on (when, seq), driven by
// seeded, interleaved pushes and pops. Delays land on the same instant,
// within a few hundred ns, within a few hundred us and up to ~1 s out.
// Sparse stretches (one or two events pending) alternate with bursts of
// same-instant ties and with deep clusters of 10^4 to 10^5 pending
// events. A peek-then-push step replays run_until (events land behind
// the top), and the same queue is reused after clear().

#include <algorithm>
#include <queue>

#include "core/event_queue.hpp"
#include "util/rng.hpp"

namespace hpccsim::sim {
namespace {

using detail::QEvent;

// Makes std::priority_queue a min-queue on (when, seq).
struct EventAfter {
  bool operator()(const QEvent& a, const QEvent& b) const {
    return detail::event_before(b, a);
  }
};

void drive_queue_against_reference(std::uint64_t seed, int ops) {
  constexpr std::uint64_t kNear = std::uint64_t{1} << 18;  // ~262 ns
  constexpr std::uint64_t kMid = std::uint64_t{1} << 28;   // ~268 us
  constexpr std::uint64_t kFar = std::uint64_t{1} << 40;   // ~1.1 s

  Rng rng(seed);
  detail::EventQueue q;
  std::priority_queue<QEvent, std::vector<QEvent>, EventAfter> ref;
  std::uint64_t now = 0, seq = 0;
  std::size_t peak = 0;
  int done = 0, clears = 0;
  bool ok = true;

  const auto push_at = [&](std::uint64_t when) {
    const QEvent ev{when, seq++, 0};
    q.push(ev);
    ref.push(ev);
    peak = std::max(peak, ref.size());
    ++done;
  };
  const auto delay = [&]() -> std::uint64_t {
    switch (rng.below(4)) {
      case 0:
        return 0;
      case 1:
        return rng.below(kNear);
      case 2:
        return rng.below(kMid);
      default:
        return rng.below(kFar);
    }
  };
  const auto pop_one = [&] {
    const QEvent want = ref.top();
    ref.pop();
    const QEvent got = q.pop();
    ++done;
    if (got.when != want.when || got.seq != want.seq ||
        q.size() != ref.size()) {
      ADD_FAILURE() << "seed " << seed << " op " << done << ": popped ("
                    << got.when << ", " << got.seq << "), expected ("
                    << want.when << ", " << want.seq << ")";
      ok = false;
    }
    now = got.when;
  };
  const auto pop_n = [&](std::size_t n) {
    for (; n > 0 && ok && !ref.empty(); --n) pop_one();
  };
  const auto clear = [&] {
    q.clear();
    ref = {};
    ++clears;
    EXPECT_TRUE(q.empty());
  };

  while (ok && done < ops) {
    switch (rng.below(8)) {
      case 0: {  // sparse: one or two events pending, far-out delays
        pop_n(ref.size() > 2 ? ref.size() - 2 : 0);
        for (auto n = rng.below(200); n > 0 && ok; --n) {
          push_at(now + rng.below(kFar));
          pop_one();
        }
        break;
      }
      case 1: {  // hold at the current depth, mixed delays
        for (auto n = rng.below(500); n > 0 && ok; --n) {
          push_at(now + delay());
          if (rng.below(2) == 0) pop_one();
        }
        break;
      }
      case 2: {  // same-instant ties, popped in schedule order
        const std::uint64_t when = now + (rng.below(2) ? 0 : delay());
        for (auto n = 2 + rng.below(300); n > 0; --n) push_at(when);
        pop_n(rng.below(400));
        break;
      }
      case 3: {  // a deep cluster: drain half or more, clear the rest
        if (rng.below(4) != 0) break;
        const std::uint64_t span = rng.below(2) ? kMid : kFar;
        for (auto n = 10'000 + rng.below(90'001); n > 0; --n)
          push_at(now + rng.below(span));
        pop_n(ref.size() / 2 + rng.below(ref.size() / 2));
        clear();
        break;
      }
      case 4: {  // run_until: peek, stop short of top, push behind it
        if (ref.empty()) break;
        const QEvent& top = q.top();
        if (top.when != ref.top().when || top.seq != ref.top().seq) {
          ADD_FAILURE() << "seed " << seed << " op " << done << ": top ("
                        << top.when << ", " << top.seq << ")";
          ok = false;
          break;
        }
        now += rng.below(top.when - now + 1);
        for (auto n = 1 + rng.below(4); n > 0; --n)
          push_at(now + rng.below(kNear));
        break;
      }
      case 5:  // reuse: drop what is pending and keep going
        if (rng.below(4) == 0) clear();
        break;
      default:
        pop_n(rng.below(64));
        break;
    }
  }
  pop_n(ref.size());
  EXPECT_TRUE(q.empty());
  // The mix reached what the comment above promises.
  EXPECT_GE(peak, 10'000u) << "seed " << seed;
  EXPECT_GT(clears, 0) << "seed " << seed;
}

TEST(EventQueue, MatchesPriorityQueueOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    drive_queue_against_reference(seed, 300'000);
}

}  // namespace
}  // namespace hpccsim::sim

// ----------------------------------------------------- worker pool --

#include <cstdint>

#include "core/barrier.hpp"

namespace hpccsim {
namespace {

// What one band leaves for the coordinator, a cache line per band.
struct alignas(64) BandRecord {
  int runs = 0;             // commands this band has run
  std::uint64_t seen = 0;   // the coordinator's value, read in the command
  std::uint64_t wrote = 0;  // written in the command, read after the join
};

// The gate's contract, over plain (non-atomic) data on both sides: every
// band runs exactly once per command, reads what the coordinator wrote
// before issuing it, and the coordinator reads each band's writes once
// the command returns. 8 bands are more threads than a 4-vCPU host has,
// so the bounded spin must park and still finish; the last 2-band pass
// leaves six of the grown pool's workers sitting out every command.
TEST(WorkerPool, EveryBandRunsOncePerCommandAndSeesCoordinatorWrites) {
  constexpr int kCommands = 2000;
  WorkerPool& pool = WorkerPool::instance();
  for (const int bands : {2, 4, 8, 2}) {
    const auto hold = pool.acquire(bands);
    std::vector<BandRecord> record(static_cast<std::size_t>(bands));
    std::uint64_t value = 0;
    for (int c = 1; c <= kCommands; ++c) {
      value = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(c);
      pool.dispatch(bands, [&](int i) {
        BandRecord& r = record[static_cast<std::size_t>(i)];
        ++r.runs;
        r.seen = value;
        r.wrote = value + static_cast<std::uint64_t>(i);
      });
      for (int i = 0; i < bands; ++i) {
        const BandRecord& r = record[static_cast<std::size_t>(i)];
        ASSERT_EQ(r.runs, c) << "band " << i << " of " << bands;
        ASSERT_EQ(r.seen, value) << "band " << i << " of " << bands;
        ASSERT_EQ(r.wrote, value + static_cast<std::uint64_t>(i))
            << "band " << i << " of " << bands;
      }
    }
  }
}

}  // namespace
}  // namespace hpccsim
