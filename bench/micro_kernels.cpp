// Micro-benchmarks (google-benchmark) for the hot host-side paths: the
// local BLAS kernels that numeric mode executes, the reference LU, the
// event engine, XY routing, and the flit router step. These measure the
// *simulator's* speed on the host, not simulated time.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/task.hpp"
#include "linalg/blas.hpp"
#include "linalg/distlu.hpp"
#include "linalg/matrix.hpp"
#include "mesh/analytical.hpp"
#include "mesh/flit.hpp"
#include "nx/machine_runtime.hpp"
#include "obs/metrics.hpp"
#include "proc/machine.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Counting allocator so the modeled-path benchmarks can report
// allocations per operation (docs/PERF.md "Modeled-mode hot path").
// Both halves are replaced together; GCC's mismatch heuristic only sees
// the free() side.
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

namespace {

using namespace hpccsim;
using linalg::Index;
using linalg::Matrix;

void BM_dgemm_minus(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  Matrix c = Matrix::random(n, n, rng);
  for (auto _ : state) {
    linalg::dgemm_minus(n, n, n, a.data().data(), n, b.data().data(), n,
                        c.data().data(), n);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_dgemm_minus)->Arg(64)->Arg(128)->Arg(256);

void BM_dgetrf(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(2);
  const Matrix a = Matrix::random(n, n, rng);
  std::vector<Index> piv(static_cast<std::size_t>(n));
  for (auto _ : state) {
    Matrix lu = a;
    benchmark::DoNotOptimize(linalg::dgetrf(lu, piv, 32));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(2.0 / 3.0 * static_cast<double>(n * n * n)));
}
BENCHMARK(BM_dgetrf)->Arg(64)->Arg(128)->Arg(256);

void BM_dgetf2_panel(benchmark::State& state) {
  const Index m = state.range(0), nb = 32;
  Rng rng(3);
  const Matrix a = Matrix::random(m, nb, rng);
  std::vector<Index> piv(static_cast<std::size_t>(nb));
  for (auto _ : state) {
    Matrix panel = a;
    benchmark::DoNotOptimize(
        linalg::dgetf2(m, nb, panel.data().data(), m, piv));
  }
}
BENCHMARK(BM_dgetf2_panel)->Arg(256)->Arg(1024);

void BM_engine_events(benchmark::State& state) {
  // Throughput of schedule/dispatch cycles: the simulator's heartbeat.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine e;
    const int n_events = 10000;
    state.ResumeTiming();
    for (int i = 0; i < n_events; ++i)
      e.schedule_call(sim::Time::ns(100 * (i % 97)), [] {});
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_engine_events);

void BM_queue_push_pop(benchmark::State& state) {
  // Raw event-queue cost at a sustained queue depth: fill to `depth`
  // callbacks spread over a microsecond-scale window (the flit/kernel
  // clustering regime), then drain. One engine per iteration batch so
  // the event heap and the callback slot pool keep their capacity.
  const int depth = static_cast<int>(state.range(0));
  sim::Engine e;
  for (auto _ : state) {
    for (int i = 0; i < depth; ++i)
      e.schedule_call(e.now() + sim::Time::ns(10 * (i % 997)), [] {});
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_queue_push_pop)->Arg(1000)->Arg(100000);

// One self-rescheduling event of the hold model: when it fires it
// schedules itself uniform in [0, span) ahead, so the queue depth stays
// where the fill put it.
struct HoldEvent {
  sim::Engine* e;
  Rng* rng;
  std::uint64_t span_ps;
  void operator()() const {
    e->schedule_call(e->now() + sim::Time::ps(rng->below(span_ps)), *this);
  }
};

void BM_queue_hold(benchmark::State& state) {
  // The classic hold model: `depth` events pending, each pop pushes one
  // event uniform in [0, 2 * depth * gap), so events fire one `gap` apart
  // on average and the heap stays `depth` deep. The sparse rows hold
  // 1,000 and 10,000 events 10 us apart, the dense row 100,000 events
  // 1 ns apart. One iteration is ~1,000 events.
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  const auto gap_ps = static_cast<std::uint64_t>(state.range(1)) * 1000;
  sim::Engine e;
  Rng rng(1992);
  const HoldEvent ev{&e, &rng, 2 * depth * gap_ps};
  for (std::uint64_t i = 0; i < depth; ++i)
    e.schedule_call(sim::Time::ps(rng.below(ev.span_ps)), ev);
  const sim::Time step = sim::Time::ps(1000 * gap_ps);
  e.run_until(e.now() + step);  // reach the steady state untimed
  const std::uint64_t before = e.events_processed();
  for (auto _ : state) benchmark::DoNotOptimize(e.run_until(e.now() + step));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(e.events_processed() - before));
}
BENCHMARK(BM_queue_hold)
    ->ArgNames({"depth", "gap_ns"})
    ->Args({1000, 10000})
    ->Args({10000, 10000})
    ->Args({100000, 1});

void BM_schedule_call_small_capture(benchmark::State& state) {
  // The flit-router shape: a lambda capturing a couple of pointers
  // (<= 48 bytes). This path must not heap-allocate.
  sim::Engine e;
  std::uint64_t sink = 0;
  std::uint64_t* p = &sink;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i)
      e.schedule_call(e.now() + sim::Time::ns(i % 257),
                      [p, i] { *p += static_cast<std::uint64_t>(i); });
    e.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_schedule_call_small_capture);

void BM_schedule_call_large_capture(benchmark::State& state) {
  // Oversized capture (> 48 bytes): allowed to fall back to the heap.
  sim::Engine e;
  std::uint64_t sink = 0;
  struct Big {
    std::uint64_t v[8];
  };
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      Big big{};
      big.v[0] = static_cast<std::uint64_t>(i);
      e.schedule_call(e.now() + sim::Time::ns(i % 257),
                      [&sink, big] { sink += big.v[0]; });
    }
    e.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_schedule_call_large_capture);

void BM_coroutine_spawn_join(benchmark::State& state) {
  // Root-process churn: frame allocation, one suspension, completion.
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 1000; ++i) {
      e.spawn([](sim::Engine& eng) -> sim::Task<> {
        co_await eng.delay(sim::Time::ns(5));
      }(e));
    }
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_coroutine_spawn_join);

void BM_coroutine_pingpong(benchmark::State& state) {
  // Round-trip cost of two processes exchanging through a trigger chain.
  for (auto _ : state) {
    sim::Engine e;
    e.spawn([](sim::Engine& eng) -> sim::Task<> {
      for (int i = 0; i < 1000; ++i) co_await eng.delay(sim::Time::ns(10));
    }(e));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_coroutine_pingpong);

void BM_xy_route(benchmark::State& state) {
  const mesh::Mesh2D m(33, 16);
  Rng rng(4);
  for (auto _ : state) {
    const auto a = static_cast<mesh::NodeId>(rng.below(528));
    const auto b = static_cast<mesh::NodeId>(rng.below(528));
    benchmark::DoNotOptimize(m.xy_route(a, b));
  }
}
BENCHMARK(BM_xy_route);

void BM_analytical_transfer(benchmark::State& state) {
  mesh::AnalyticalMeshNet net(mesh::Mesh2D(33, 16), mesh::AnalyticalParams{});
  Rng rng(5);
  sim::Time t = sim::Time::zero();
  for (auto _ : state) {
    const auto a = static_cast<mesh::NodeId>(rng.below(528));
    const auto b = static_cast<mesh::NodeId>(rng.below(528));
    t += sim::Time::ns(50);
    benchmark::DoNotOptimize(net.transfer(a, b, 1024, t));
  }
}
BENCHMARK(BM_analytical_transfer);

// Shared loop body for the two flit-step benchmarks: keeps the mesh
// loaded by re-injecting the same 128-message uniform batch whenever
// the previous batch drains, so every timed step is a busy step (an
// idle-network step measures nothing but the scheduler's no-op path).
template <typename StepFn>
void flit_step_loop(benchmark::State& state, StepFn step) {
  mesh::FlitNetwork net(mesh::Mesh2D(8, 8), mesh::FlitParams{});
  Rng rng(6);
  const auto refill = [&net, &rng] {
    for (int i = 0; i < 128; ++i) {
      const auto s = static_cast<mesh::NodeId>(rng.below(64));
      auto d = static_cast<mesh::NodeId>(rng.below(64));
      if (d == s) d = (d + 1) % 64;
      net.inject(s, d, 256, net.cycle());
    }
  };
  refill();
  for (auto _ : state) {
    if (net.undelivered() == 0) refill();
    benchmark::DoNotOptimize(step(net));
  }
}

void BM_flit_step(benchmark::State& state) {
  flit_step_loop(state, [](mesh::FlitNetwork& n) { return n.step(); });
}
BENCHMARK(BM_flit_step);

void BM_flit_step_reference(benchmark::State& state) {
  flit_step_loop(state,
                 [](mesh::FlitNetwork& n) { return n.step_reference(); });
}
BENCHMARK(BM_flit_step_reference);

// Parallel counterpart under the same busy re-inject load. The sharded
// scheduler only engages through run(), so one iteration drains a full
// 128-message batch across 4 row-band shards (threads=2) instead of
// stepping one cycle; items processed counts simulated cycles, making
// items/s comparable with the per-step pair above.
void BM_flit_step_parallel(benchmark::State& state) {
  mesh::FlitNetwork net(mesh::Mesh2D(8, 8), mesh::FlitParams{});
  net.set_threads(2);  // 4 shards on an 8x8 mesh
  Rng rng(6);
  const auto refill = [&net, &rng] {
    for (int i = 0; i < 128; ++i) {
      const auto s = static_cast<mesh::NodeId>(rng.below(64));
      auto d = static_cast<mesh::NodeId>(rng.below(64));
      if (d == s) d = (d + 1) % 64;
      net.inject(s, d, 256, net.cycle());
    }
  };
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const std::uint64_t before = net.cycle();
    refill();
    net.run();
    cycles += net.cycle() - before;
    benchmark::DoNotOptimize(net.undelivered());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_flit_step_parallel);

void BM_modeled_send_recv(benchmark::State& state) {
  // The modeled-mode hot path end to end: csend/crecv ping-pong with
  // null payloads. After warmup this must run at zero heap allocations
  // per message (allocs_per_msg counter).
  nx::NxMachine m(proc::touchstone_delta().with_nodes(2));
  constexpr int kRoundtrips = 512;
  std::uint64_t messages = 0;
  std::uint64_t allocs_before = 0;
  for (auto _ : state) {
    allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    m.run([](nx::NxContext& ctx) -> sim::Task<> {
      const int peer = 1 - ctx.rank();
      for (int i = 0; i < kRoundtrips; ++i) {
        if (ctx.rank() == 0) {
          co_await ctx.send(peer, 7, 512);
          nx::Message back = co_await ctx.recv(peer, 8);
          (void)back;
        } else {
          nx::Message got = co_await ctx.recv(peer, 7);
          (void)got;
          co_await ctx.send(peer, 8, 512);
        }
      }
    });
    messages += 2 * kRoundtrips;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["allocs_per_msg"] = benchmark::Counter(
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      (2.0 * kRoundtrips));
}
BENCHMARK(BM_modeled_send_recv);

void BM_lu_skeleton_replay(benchmark::State& state) {
  // Replay throughput of a recorded LU schedule (ops/s): the rate at
  // which the full-Delta HPL sweep consumes its cached skeletons.
  nx::NxMachine derive_machine(proc::ipsc860());
  linalg::LuConfig cfg = linalg::lu_config_for(derive_machine, 2000, 64);
  const auto skel = linalg::derive_lu_skeleton(derive_machine, cfg, nullptr);
  nx::NxMachine m(proc::ipsc860());
  std::uint64_t ops = 0;
  std::uint64_t allocs_before = 0;
  for (auto _ : state) {
    allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(linalg::replay_lu_skeleton(m, cfg, *skel));
    ops += skel->total_ops();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs_before) /
      static_cast<double>(skel->total_ops()));
}
BENCHMARK(BM_lu_skeleton_replay);

/// Console reporter that also accumulates per-benchmark real times so
/// the custom main below can emit the shared --json metrics schema.
class MetricsReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      std::string key = r.benchmark_name() + "_ns";
      for (char& c : key)
        if (c == '/' || c == ':') c = '_';
      results.emplace_back(std::move(key), r.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> results;
};

}  // namespace

// Custom main instead of benchmark_main: peel off the repo-standard
// `--json <path>` before google-benchmark sees argv, then emit the
// shared BenchMetrics schema. These are host-time numbers (the
// simulator's own speed), so there is no sim_time_s here and the CI
// gate treats every value as wall-clock (warn-only).
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
    } else {
      rest.push_back(argv[i]);
    }
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data()))
    return 1;

  MetricsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  hpccsim::obs::BenchMetrics bm("micro_kernels");
  for (const auto& [key, ns] : reporter.results) bm.metric(key, ns);
  bm.write_file(json_path);
  return 0;
}
