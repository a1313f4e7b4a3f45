// hpccbench: the outside-in benchmark of hpccsim (benchmark/README.md).
//
//   hpccbench --workload W --seed S [--seconds T] [--trace PREFIX]
//             [--lu-n N] --json OUT
//   hpccbench --list --json OUT       the manifest BENCHMARK.json mirrors
//
// One workload per process. Every layer is reached through its public
// entry points and timed from outside with std::chrono::steady_clock.
// A run repeats whole iterations (set up, simulate, check) until T host
// seconds have passed and reports medians over them; every iteration of
// a run must produce the same sim_digest, a hash of its simulated
// outputs.
//
// With --trace the run alternates untraced and traced iterations. A
// traced iteration records a host-time span around every layer call
// through obs::TraceWriter (host nanoseconds stored as sim::Time) and
// runs the per-layer probes; a sharded workload then re-runs once on
// one thread and must reproduce the sim_digest exactly. The run writes
// PREFIX.trace.json (Chrome trace) and PREFIX.layers.json.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "fault/injector.hpp"
#include "grid/federation.hpp"
#include "grid/grid_sim.hpp"
#include "grid/workload.hpp"
#include "linalg/cg.hpp"
#include "linalg/distlu.hpp"
#include "mesh/analytical.hpp"
#include "mesh/flit.hpp"
#include "mesh/traffic.hpp"
#include "nx/machine_runtime.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "proc/machine.hpp"
#include "sched/platform.hpp"
#include "sched/workload.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace hpccsim;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// The manifest: workloads and metrics. BENCHMARK.json mirrors it and
// `run.py --check-manifest` fails when the two disagree.

constexpr int kRunSeconds = 15;

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
  double bound;  // share of the parent's median; end-to-end metrics only
};

// fail_ratio is not among them: it is 0 on a healthy run, so it travels
// as the result's attempted/failed counts instead.
// Host-time bounds sit at the 0.25 ceiling: even scaled to a fixed host
// speed (SpeedSampler), ten-seed spreads on the shared 4-vCPU reference
// host reach 8-14% for the multi-thread workloads (README.md).
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s", "lower", 0.25},
    {"setup_s", "s", "lower", 0.25},
    {"work_rate", "1/s", "higher", 0.25},
    {"cpu_s", "s", "lower", 0.25},
    {"peak_rss_mib", "MiB", "lower", 0.10},
};

// Reported by every traced run. The bench.* phase times and
// obs.export_s exist on every workload; a layer metric reads 0 on a
// workload that bypasses the layer. Layer host times are given as
// shares or rates here; the seconds behind them are in the layers file.
constexpr MetricSpec kPerLayer[] = {
    {"bench.setup_s", "s", "lower", 0},
    {"bench.simulate_s", "s", "lower", 0},
    {"bench.check_s", "s", "lower", 0},
    {"obs.export_s", "s", "lower", 0},
    {"core.events", "count", "lower", 0},
    {"core.peak_queue_depth", "count", "lower", 0},
    {"nx.machine_build_ranks_per_s", "1/s", "higher", 0},
    {"nx.sends", "count", "lower", 0},
    {"nx.coroutine_pct", "%", "lower", 0},
    {"nx.runtime_self_pct", "%", "lower", 0},
    {"mesh.analytical.transfer_pct", "%", "lower", 0},
    {"mesh.analytical.transfers_per_s", "1/s", "higher", 0},
    {"linalg.skeleton_ops", "count", "lower", 0},
    {"linalg.replay_ops_per_s", "1/s", "higher", 0},
    {"linalg.skeleton_mib", "MiB", "lower", 0},
    {"nx.shard.windows", "count", "lower", 0},
    {"nx.shard.intents", "count", "lower", 0},
    {"nx.shard.intents_per_window", "ratio", "higher", 0},
    {"nx.shard.handoffs", "count", "lower", 0},
    {"nx.shard.speedup", "x", "higher", 0},
    {"mesh.flit.inject_msgs_per_s", "1/s", "higher", 0},
    {"mesh.flit.saturated_hops_per_s", "1/s", "higher", 0},
    {"mesh.flit.sparse_hops_per_s", "1/s", "higher", 0},
    {"mesh.flit.cycles", "count", "lower", 0},
    {"mesh.flit.cycles_skipped", "count", "higher", 0},
    {"mesh.flit.router_visits", "count", "lower", 0},
    {"mesh.flit.link_flits", "count", "lower", 0},
    {"mesh.flit.visits_per_hop", "ratio", "lower", 0},
    {"mesh.flit.speedup", "x", "higher", 0},
    {"mesh.flit.shard.barrier_waits", "count", "lower", 0},
    {"mesh.flit.shard.boundary_flits", "count", "lower", 0},
    {"mesh.flit.shard.windows", "count", "lower", 0},
    {"grid.requests", "count", "lower", 0},
    {"grid.cache_hit_ratio", "ratio", "higher", 0},
    {"grid.coalesced", "count", "lower", 0},
    {"grid.workload_next_pct", "%", "lower", 0},
    {"wan.flows_completed", "count", "lower", 0},
    {"wan.recomputes", "count", "lower", 0},
    {"wan.rate_updates", "count", "lower", 0},
    {"wan.stale_events", "count", "lower", 0},
    {"wan.active_peak", "count", "lower", 0},
    {"wan.recomputes_per_flow", "ratio", "lower", 0},
    {"wan.stale_ratio", "ratio", "lower", 0},
    {"sched.jobs", "count", "lower", 0},
    {"sched.backfilled", "count", "higher", 0},
    {"sched.rollbacks", "count", "lower", 0},
    {"sched.ckpts_committed", "count", "lower", 0},
    {"fault.trace_gen_pct", "%", "lower", 0},
    {"io.peak_active", "count", "lower", 0},
    {"io.bytes_completed", "bytes", "lower", 0},
    {"util.parallel_efficiency", "ratio", "higher", 0},
};

// Workload sizes. An iteration takes one to three host seconds on a
// 4-core host, so a run of kRunSeconds holds several and reports medians.
// Columbia LU takes about six: below n=512 its fixed per-rank cost, which
// the bands share well, hides the lookahead-window cost that makes the
// full-scale n=2048 run slower at 4 threads than at 1 (README.md).
constexpr std::int64_t kHplN = 6000;
constexpr std::int64_t kLuNb = 64;
constexpr std::int64_t kColumbiaLuN = 512;
constexpr std::int64_t kColumbiaCgGrid = 1024;
constexpr std::int32_t kColumbiaCgIters = 1;
constexpr int kFlitSide = 128;
constexpr double kGridRequestsPerDay = 400000.0;
constexpr int kPlatformMonths = 16;
constexpr int kSetupRepeats = 5;

// ---------------------------------------------------------------------
// Host measurement.

const Clock::time_point kEpoch = Clock::now();

/// Host time since process start, as sim::Time (for obs::TraceWriter).
sim::Time host_now() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - kEpoch)
                      .count();
  return sim::Time::ps(static_cast<std::uint64_t>(ns) * 1000);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User plus system CPU seconds of the whole process, all threads.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::atomic<std::uint64_t> g_probe_sink{0};

/// A fixed integer loop of `steps` SplitMix64 steps; its host time
/// measures how fast the CPU running it is at that moment.
double probe_seconds(int steps) {
  const auto t0 = Clock::now();
  SplitMix64 sm(1992);
  std::uint64_t acc = 0;
  for (int i = 0; i < steps; ++i) acc ^= sm.next();
  const double s = seconds_since(t0);
  g_probe_sink.fetch_xor(acc, std::memory_order_relaxed);
  return s;
}

/// Host speed at process start in ms, recorded with every run so results
/// from differently loaded hosts can be told apart.
double host_probe_ms() { return probe_seconds(20'000'000) * 1e3; }

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Confines the calling thread, and every thread it starts, to `threads`
/// CPUs, beginning with the one it runs on, and returns them: the speed
/// sampled on those CPUs is the speed the workload ran at.
std::vector<int> confine_to(int threads) {
  std::vector<int> cpus = allowed_cpus();
  const auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
  if (here != cpus.end()) std::rotate(cpus.begin(), here, cpus.end());
  cpus.resize(std::min(cpus.size(), static_cast<std::size_t>(threads)));
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

// The reference host's vCPUs each swing between fast and slow phases,
// about 2x apart, independently of one another and on time scales from a
// fraction of a second to minutes. A host time measured there says as
// much about the neighbours as about hpccsim. So while a run iterates, a
// SpeedSampler thread pinned to each of the run's CPUs times a short
// probe every kSamplePeriod (about 0.2% of each CPU), and the run scales
// every host time of an iteration by kReferenceProbeUs over the mean
// probe time sampled during that iteration: seconds at a fixed host
// speed. kReferenceProbeUs is the probe time in a quiet phase of the
// reference host.
constexpr int kSampleSteps = 25'000;
constexpr auto kSamplePeriod = std::chrono::milliseconds(20);
constexpr double kReferenceProbeUs = 30.0;

class SpeedSampler {
 public:
  explicit SpeedSampler(const std::vector<int>& cpus) : slots_(cpus.size()) {
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      slots_[i].cpu = cpus[i];
      threads_.emplace_back([this, i] { sample(slots_[i]); });
    }
  }
  ~SpeedSampler() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  /// CPU seconds the sampler threads have used so far; a run leaves them
  /// out of its own.
  double cpu_seconds() {
    double sum = 0.0;
    for (std::thread& t : threads_) {
      clockid_t clock;
      timespec ts{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0)
        sum += static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
    return sum;
  }

  /// Probe time in µs since the previous call: the mean over the sampled
  /// CPUs of each one's mean probe time; 0 when there were no samples.
  double take_us() {
    double sum = 0.0;
    int cpus = 0;
    for (Slot& s : slots_) {
      const std::lock_guard<std::mutex> lock(s.mu);
      if (s.count) {
        sum += s.sum_us / s.count;
        ++cpus;
      }
      s.sum_us = 0.0;
      s.count = 0;
    }
    return cpus ? sum / cpus : 0.0;
  }

 private:
  struct Slot {
    std::mutex mu;
    double sum_us = 0.0;
    int count = 0;
    int cpu = 0;
  };

  void sample(Slot& s) {
    pin_to(s.cpu);
    auto next = Clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      const double us = probe_seconds(kSampleSteps) * 1e6;
      {
        const std::lock_guard<std::mutex> lock(s.mu);
        s.sum_us += us;
        ++s.count;
      }
      // Never catch up in a burst after a stall.
      next = std::max(next + kSamplePeriod, Clock::now());
      std::this_thread::sleep_until(next);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// FNV-1a over simulated outputs (values, never host times).
class Digest {
 public:
  template <class T>
  void add(T v) {
    static_assert(std::is_arithmetic_v<T>);
    std::uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<T>) {
      const double d = static_cast<double>(v);
      std::memcpy(&bits, &d, sizeof bits);
    } else {
      bits = static_cast<std::uint64_t>(v);
    }
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(sim::Time t) { add(t.picoseconds()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------
// One iteration of a workload.

struct Ctx {
  std::uint64_t seed = 0;
  int threads = 1;
  std::int64_t lu_n = 0;  // 0: the workload's own LU order
  obs::TraceWriter* trace = nullptr;  // non-null on traced iterations

  double setup_s = 0.0, simulate_s = 0.0, check_s = 0.0;
  double setup_repeats_s = 0.0;  // the set-ups beyond the median one
  double work = 0.0;  // work units done by the simulate calls
  Digest digest;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> layers;  // traced iterations only

  bool traced() const { return trace != nullptr; }

  /// Times fn; on a traced iteration also records it as a span.
  template <class Fn>
  double span(std::string_view name, std::string_view layer, Fn&& fn) {
    const sim::Time t0 = host_now();
    fn();
    const sim::Time t1 = host_now();
    if (trace) trace->complete(0, name, layer, t0, t1);
    return (t1 - t0).as_sec();
  }
  /// Sets up kSetupRepeats times and keeps the median time: a set-up
  /// takes milliseconds, so a single sample of it is mostly noise. Each
  /// set-up first releases the previous one's objects, so the peak
  /// footprint stays that of one set-up.
  template <class Fn>
  void setup(Fn&& fn) {
    std::vector<double> t(kSetupRepeats);
    double total = 0.0;
    for (double& s : t) total += s = span("setup", "bench", fn);
    setup_s = median(t);
    setup_repeats_s = total - setup_s;
  }
  template <class Fn>
  void simulate(Fn&& fn) {
    simulate_s += span("simulate", "bench", fn);
  }
  template <class Fn>
  void check(Fn&& fn) {
    check_s += span("check", "bench", fn);
  }

  /// One simulated operation; `bad` lists what its checks found wrong.
  void op(std::string_view what, const std::string& bad) {
    ++attempted;
    if (bad.empty()) return;
    ++failed;
    errors.push_back(std::string(what) + ":" + bad);
  }
};

/// Start/end of a parallel_for point, recorded on the worker and turned
/// into a span after the join (TraceWriter is single-threaded).
struct PointTime {
  sim::Time start, end;
  std::thread::id worker;
  void begin() {
    start = host_now();
    worker = std::this_thread::get_id();
  }
  void finish() { end = host_now(); }
  double seconds() const { return (end - start).as_sec(); }
};

/// One track per worker thread, numbered in order of first appearance.
void record_points(Ctx& c, const std::vector<PointTime>& pts,
                   std::string_view name, std::string_view layer) {
  if (!c.trace) return;
  std::vector<std::thread::id> seen;
  for (const PointTime& p : pts) {
    auto it = std::find(seen.begin(), seen.end(), p.worker);
    if (it == seen.end()) it = seen.insert(seen.end(), p.worker);
    c.trace->complete(static_cast<std::int32_t>(it - seen.begin()) + 1, name,
                      layer, p.start, p.end);
  }
}

double sum_seconds(const std::vector<PointTime>& pts) {
  double s = 0.0;
  for (const PointTime& p : pts) s += p.seconds();
  return s;
}

// ---------------------------------------------------------------------
// hpl_delta: modeled LU on the calibrated 528-node Delta, derived by the
// coroutine program and then replayed from its recorded schedule.

// Deterministic whole-run counters the replay must reproduce.
constexpr const char* kReplayChecked[] = {
    "core.engine.events", "core.engine.calls_scheduled",
    "nx.sends",           "nx.recvs",
    "nx.bytes_sent",      "nx.flops_charged",
    "nx.compute.ns",      "nx.send_wait.ns",
    "nx.recv_wait.ns",    "mesh.messages",
    "mesh.stalls",        "mesh.reroutes",
};

/// Kernel efficiencies fitted by bench/calibrate_kernels.
void apply_calibration(proc::NodeModel& node) {
  std::ifstream in(HPCCBENCH_CALIBRATION);
  if (!in)
    throw std::runtime_error(std::string("cannot read ") +
                             HPCCBENCH_CALIBRATION);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  auto load = [&text](const char* key, double& field) {
    const std::string quoted = std::string("\"") + key + "\"";
    const std::size_t at = text.find(quoted);
    const std::size_t colon =
        at == std::string::npos ? at : text.find(':', at + quoted.size());
    if (colon == std::string::npos)
      throw std::runtime_error(std::string("calibration lacks ") + key);
    field = std::strtod(text.c_str() + colon + 1, nullptr);
  };
  load("gemm_efficiency", node.gemm_efficiency);
  load("trsm_efficiency", node.trsm_efficiency);
  load("panel_efficiency", node.panel_efficiency);
  load("vector_efficiency", node.vector_efficiency);
}

std::string compare_lu(const linalg::LuResult& a, const linalg::LuResult& b) {
  std::ostringstream bad;
  if (a.elapsed != b.elapsed)
    bad << " elapsed " << a.elapsed.str() << "!=" << b.elapsed.str();
  if (a.gflops != b.gflops) bad << " gflops";
  if (a.messages != b.messages) bad << " messages";
  if (a.bytes_moved != b.bytes_moved) bad << " bytes_moved";
  if (a.flops_charged != b.flops_charged) bad << " flops_charged";
  if (a.compute_time != b.compute_time) bad << " compute_time";
  return bad.str();
}

void add_lu(Digest& d, const linalg::LuResult& r) {
  d.add(r.elapsed);
  d.add(r.gflops);
  d.add(r.messages);
  d.add(r.bytes_moved);
  d.add(r.flops_charged);
  d.add(r.compute_time);
}

void run_hpl_delta(Ctx& c) {
  const std::int64_t n = c.lu_n > 0 ? c.lu_n : kHplN;
  proc::MachineConfig mc;
  std::unique_ptr<nx::NxMachine> derive_m, replay_m;
  linalg::LuConfig cfg;
  double build_s = 0.0;
  c.setup([&] {
    derive_m.reset();
    replay_m.reset();
    mc = proc::touchstone_delta();
    apply_calibration(mc.node);
    build_s = c.span("nx.machine_build", "nx", [&] {
      derive_m = std::make_unique<nx::NxMachine>(mc);
      replay_m = std::make_unique<nx::NxMachine>(mc);
    });
    cfg = linalg::lu_config_for(*derive_m, n, kLuNb);
  });
  // The traced iteration re-drives the replay's messages through a
  // standalone network model below; recording them adds one append per
  // message to nx.replay_s.
  if (c.traced()) replay_m->enable_message_trace();

  linalg::LuResult derived, replayed;
  std::shared_ptr<const linalg::LuSkeleton> skel;
  double derive_s = 0.0, replay_s = 0.0;
  c.simulate([&] {
    derive_s = c.span("nx.derive", "nx", [&] {
      skel = linalg::derive_lu_skeleton(*derive_m, cfg, &derived);
    });
    if (skel)
      replay_s = c.span("nx.replay", "nx", [&] {
        replayed = linalg::replay_lu_skeleton(*replay_m, cfg, *skel);
      });
  });

  obs::Registry* a = nullptr;
  c.check([&] {
    a = &derive_m->snapshot_counters();
    obs::Registry& b = replay_m->snapshot_counters();
    c.op("derive", skel ? "" : " schedule not representable");
    std::string bad = skel ? compare_lu(derived, replayed) : " no replay";
    for (const char* name : kReplayChecked)
      if (a->value(name) != b.value(name))
        bad += std::string(" ") + name + " " + std::to_string(a->value(name)) +
               "!=" + std::to_string(b.value(name));
    // The calibration fits this one point, so this is a fit residual,
    // not a validation.
    if (n == 25000 && std::abs(derived.gflops - 13.0) > 0.65)
      bad += " calibrated n=25000 outside 13 +/- 0.65 GFLOPS";
    c.op("replay", bad);
    c.work = static_cast<double>(a->value("core.engine.events") +
                                 b.value("core.engine.events"));
    add_lu(c.digest, derived);
    for (const char* name : kReplayChecked) c.digest.add(a->value(name));
  });
  if (!c.traced() || !skel) return;

  // Transfer share: the replay's message stream re-driven through a
  // fresh copy of the machine's network model must land every message
  // at its recorded arrival.
  const std::vector<nx::MessageTraceRecord>& msgs = replay_m->message_trace();
  mesh::AnalyticalMeshNet net(mc.mesh(), mc.net);
  std::size_t mismatched = 0;
  const double transfer_s =
      c.span("mesh.analytical.transfer", "mesh.analytical", [&] {
        for (const nx::MessageTraceRecord& m : msgs)
          mismatched +=
              net.transfer(m.src, m.dst, m.bytes, m.depart) != m.arrive;
      });
  c.op("transfer re-drive",
       mismatched ? " " + std::to_string(mismatched) + " arrivals differ" : "");

  const auto ops = static_cast<double>(skel->total_ops());
  const auto count = static_cast<double>(msgs.size());
  auto& L = c.layers;
  L["nx.machine_build_s"] = build_s;
  L["nx.machine_build_ranks_per_s"] = 2.0 * mc.node_count() / build_s;
  L["nx.derive_s"] = derive_s;
  L["nx.replay_s"] = replay_s;
  L["nx.coroutine_s"] = derive_s - replay_s;
  L["nx.runtime_self_s"] = replay_s - transfer_s;
  L["mesh.analytical.transfer_s"] = transfer_s;
  L["mesh.analytical.ns_per_transfer"] = transfer_s * 1e9 / count;
  L["mesh.analytical.transfers_per_s"] = count / transfer_s;
  // Shares of the derive run: coroutine program + nx runtime + network.
  L["nx.coroutine_pct"] = 100.0 * (derive_s - replay_s) / derive_s;
  L["nx.runtime_self_pct"] = 100.0 * (replay_s - transfer_s) / derive_s;
  L["mesh.analytical.transfer_pct"] = 100.0 * transfer_s / derive_s;
  L["core.events"] = static_cast<double>(a->value("core.engine.events"));
  L["core.peak_queue_depth"] =
      static_cast<double>(a->value("core.engine.peak_queue_depth"));
  L["nx.sends"] = static_cast<double>(a->value("nx.sends"));
  L["linalg.skeleton_ops"] = ops;
  L["linalg.replay_ops_per_s"] = ops / replay_s;
  L["linalg.skeleton_mib"] = ops * sizeof(nx::SkelOp) / (1024.0 * 1024.0);
  L["linalg.gflops"] = derived.gflops;
  if (n == 25000)
    L["linalg.fit_residual_pct"] = 100.0 * (derived.gflops - 13.0) / 13.0;
}

// ---------------------------------------------------------------------
// columbia_*: modeled LU or CG on the 16,384-rank Columbia mesh with the
// rank-band sharded engine.

// Thread-invariant whole-run counters: the sharded engine must reproduce
// them exactly at any thread count.
constexpr const char* kInvariantCounters[] = {
    "core.engine.events", "core.engine.calls_scheduled",
    "nx.sends",           "nx.recvs",
    "nx.bytes_sent",      "nx.flops_charged",
    "nx.compute.ns",      "nx.send_wait.ns",
    "nx.recv_wait.ns",    "mesh.messages",
};

void run_columbia(Ctx& c, bool lu) {
  std::unique_ptr<nx::NxMachine> m;
  double build_s = 0.0;
  c.setup([&] {
    m.reset();
    build_s = c.span("nx.machine_build", "nx", [&] {
      m = std::make_unique<nx::NxMachine>(proc::columbia());
    });
    m->set_threads(c.threads);
  });

  linalg::LuResult lr;
  linalg::CgResult cr;
  c.simulate([&] {
    c.span("nx.run", "nx", [&] {
      if (lu) {
        lr = linalg::run_distributed_lu(
            *m, linalg::lu_config_for(*m, c.lu_n > 0 ? c.lu_n : kColumbiaLuN,
                                      kLuNb));
      } else {
        linalg::CgConfig cfg;
        cfg.grid_n = kColumbiaCgGrid;
        cfg.grid = linalg::ProcessGrid{m->config().mesh_height,
                                       m->config().mesh_width};
        cfg.numeric = false;
        cfg.modeled_iters = kColumbiaCgIters;
        cr = linalg::run_distributed_cg(*m, cfg);
      }
    });
  });

  obs::Registry* reg = nullptr;
  c.check([&] {
    reg = &m->snapshot_counters();
    std::ostringstream bad;
    if (reg->value("nx.sends") != reg->value("nx.recvs"))
      bad << " sends " << reg->value("nx.sends") << "!=recvs "
          << reg->value("nx.recvs");
    if (c.threads > 1 && reg->value("engine.shard.runs") < 1)
      bad << " the sharded engine did not run";
    if (!lu && cr.iterations != kColumbiaCgIters)
      bad << " cg ran " << cr.iterations << " iterations";
    c.op(lu ? "lu" : "cg", bad.str());
    c.work = static_cast<double>(reg->value("core.engine.events"));
    if (lu) {
      add_lu(c.digest, lr);
    } else {
      c.digest.add(cr.elapsed);
      c.digest.add(cr.iterations);
      c.digest.add(cr.messages);
      c.digest.add(cr.bytes_moved);
    }
    for (const char* name : kInvariantCounters) c.digest.add(reg->value(name));
  });
  if (!c.traced()) return;

  const auto windows = static_cast<double>(reg->value("engine.shard.windows"));
  const auto intents = static_cast<double>(reg->value("engine.shard.intents"));
  auto& L = c.layers;
  L["nx.machine_build_s"] = build_s;
  L["nx.machine_build_ranks_per_s"] = m->nodes() / build_s;
  L["core.events"] = static_cast<double>(reg->value("core.engine.events"));
  L["core.peak_queue_depth"] =
      static_cast<double>(reg->value("core.engine.peak_queue_depth"));
  L["nx.sends"] = static_cast<double>(reg->value("nx.sends"));
  L["nx.shard.windows"] = windows;
  L["nx.shard.intents"] = intents;
  L["nx.shard.intents_per_window"] = windows > 0 ? intents / windows : 0.0;
  L["nx.shard.handoffs"] =
      static_cast<double>(reg->value("engine.shard.handoffs"));
}

void run_columbia_lu(Ctx& c) { run_columbia(c, true); }
void run_columbia_cg(Ctx& c) { run_columbia(c, false); }

// ---------------------------------------------------------------------
// flit_columbia_t4: the cycle-level flit network on a 128x128 mesh, one
// saturated and one sparse phase, each on a fresh network.

mesh::TrafficConfig saturated_traffic(std::uint64_t seed) {
  mesh::TrafficConfig t;
  t.pattern = mesh::Pattern::UniformRandom;
  t.messages_per_node = 1;
  t.message_bytes = 1024;
  t.mean_gap = sim::Time::us(20);
  t.seed = named_substream(seed, "bench.flit.saturated").next();
  return t;
}

// Few, spread-out transposes from every kSparseStride-th node: the
// network is mostly empty, so idle-cycle skip and wormhole fast-forward
// carry the run across ~4*10^8 cycles.
constexpr mesh::NodeId kSparseStride = 4;
constexpr std::uint64_t kSparseMaxCycles = 10'000'000'000;

std::vector<mesh::TrafficRecord> sparse_traffic(const mesh::Mesh2D& mesh,
                                                std::uint64_t seed) {
  mesh::TrafficConfig t;
  t.pattern = mesh::Pattern::Transpose;
  t.messages_per_node = 1;
  t.message_bytes = 256;
  t.mean_gap = sim::Time::sec(30);
  t.seed = named_substream(seed, "bench.flit.sparse").next();
  std::vector<mesh::TrafficRecord> all = mesh::generate_traffic(mesh, t);
  std::erase_if(all, [](const mesh::TrafficRecord& r) {
    return r.src % kSparseStride != 0;
  });
  return all;
}

std::string check_flit(const mesh::FlitNetwork& net, const mesh::Mesh2D& mesh,
                       std::uint64_t flit_bytes) {
  std::uint64_t flits = 0, hops = 0;
  std::size_t undelivered = 0;
  for (const mesh::FlitMessage& m : net.messages()) {
    const std::uint64_t f = (m.bytes + flit_bytes - 1) / flit_bytes;
    flits += f;
    hops += f * static_cast<std::uint64_t>(mesh.distance(m.src, m.dst));
    undelivered += !m.delivered;
  }
  std::ostringstream bad;
  if (undelivered) bad << ' ' << undelivered << " undelivered";
  if (net.injected_flits() != flits || net.ejected_flits() != flits)
    bad << " flits injected " << net.injected_flits() << " ejected "
        << net.ejected_flits() << " expected " << flits;
  // XY routes are minimal: every flit crosses exactly distance(src, dst)
  // links.
  if (net.link_flits() != hops)
    bad << " link flits " << net.link_flits() << " expected " << hops;
  return bad.str();
}

void run_flit(Ctx& c) {
  const mesh::Mesh2D mesh(kFlitSide, kFlitSide);
  const mesh::FlitParams fp;
  std::vector<mesh::TrafficRecord> traffic[2];
  std::unique_ptr<mesh::FlitNetwork> nets[2];
  double inject_s = 0.0;
  c.setup([&] {
    for (int p = 0; p < 2; ++p) {
      nets[p].reset();
      traffic[p] = {};
    }
    c.span("mesh.traffic", "mesh", [&] {
      traffic[0] = mesh::generate_traffic(mesh, saturated_traffic(c.seed));
      traffic[1] = sparse_traffic(mesh, c.seed);
    });
    c.span("mesh.flit.build", "mesh.flit", [&] {
      for (auto& net : nets) {
        net = std::make_unique<mesh::FlitNetwork>(mesh, fp);
        net->set_threads(c.threads);
      }
    });
    inject_s = c.span("mesh.flit.inject", "mesh.flit", [&] {
      for (int p = 0; p < 2; ++p) {
        const double cycle_us = nets[p]->cycle_time().as_us();
        for (const mesh::TrafficRecord& r : traffic[p])
          nets[p]->inject(r.src, r.dst, r.bytes,
                          static_cast<std::uint64_t>(r.depart.as_us() /
                                                     cycle_us));
      }
    });
  });

  double run_s[2] = {0.0, 0.0};
  c.simulate([&] {
    run_s[0] = c.span("mesh.flit.saturated", "mesh.flit",
                      [&] { nets[0]->run(); });
    run_s[1] = c.span("mesh.flit.sparse", "mesh.flit",
                      [&] { nets[1]->run(kSparseMaxCycles); });
  });

  c.check([&] {
    const char* phase[2] = {"saturated", "sparse"};
    c.work = 0.0;
    for (int p = 0; p < 2; ++p) {
      const mesh::FlitNetwork& net = *nets[p];
      c.op(phase[p], check_flit(net, mesh, fp.flit_bytes));
      c.work += static_cast<double>(net.link_flits());
      c.digest.add(net.cycle());
      c.digest.add(net.link_flits());
      for (const mesh::FlitMessage& m : net.messages())
        c.digest.add(m.delivered_cycle);
    }
  });
  if (!c.traced()) return;

  auto& L = c.layers;
  double cycles = 0, skipped = 0, visits = 0, links = 0, waits = 0,
         boundary = 0, windows = 0;
  for (const auto& net : nets) {
    cycles += static_cast<double>(net->cycle());
    skipped += static_cast<double>(net->skipped_cycles());
    visits += static_cast<double>(net->router_visits());
    links += static_cast<double>(net->link_flits());
    waits += static_cast<double>(net->barrier_waits());
    boundary += static_cast<double>(net->boundary_flits());
    windows += static_cast<double>(net->parallel_windows());
  }
  const auto messages =
      static_cast<double>(traffic[0].size() + traffic[1].size());
  L["mesh.flit.inject_s"] = inject_s;
  L["mesh.flit.inject_msgs_per_s"] = messages / inject_s;
  L["mesh.flit.saturated_run_s"] = run_s[0];
  L["mesh.flit.sparse_run_s"] = run_s[1];
  L["mesh.flit.saturated_hops_per_s"] =
      static_cast<double>(nets[0]->link_flits()) / run_s[0];
  L["mesh.flit.sparse_hops_per_s"] =
      static_cast<double>(nets[1]->link_flits()) / run_s[1];
  L["mesh.flit.cycles"] = cycles;
  L["mesh.flit.cycles_skipped"] = skipped;
  L["mesh.flit.router_visits"] = visits;
  L["mesh.flit.link_flits"] = links;
  L["mesh.flit.visits_per_hop"] = visits / links;
  L["mesh.flit.shard.barrier_waits"] = waits;
  L["mesh.flit.shard.boundary_flits"] = boundary;
  L["mesh.flit.shard.windows"] = windows;
}

// ---------------------------------------------------------------------
// grid_day: a simulated day of the 28-site data federation, both
// placement policies as parallel_for points.

grid::WorkloadConfig grid_workload(std::uint64_t seed) {
  grid::WorkloadConfig wc;  // the grid_rush_hour defaults, lighter load
  wc.seed = seed;
  wc.days = 1.25;
  wc.requests_per_day = kGridRequestsPerDay;
  wc.dataset_count = 60000;
  wc.median_bytes = 3.5e6;
  wc.rush_amplitude = 1.2;
  return wc;
}

void run_grid(Ctx& c) {
  const grid::FederationConfig fc;
  const grid::WorkloadConfig wc = grid_workload(c.seed);
  const grid::Placement policies[2] = {grid::Placement::WidestPath,
                                       grid::Placement::LeastLoaded};
  std::unique_ptr<grid::Federation> feds[2];
  std::unique_ptr<grid::WorkloadGenerator> gens[2];
  double fed_s = 0.0, gen_s = 0.0;
  c.setup([&] {
    for (int i = 0; i < 2; ++i) {
      gens[i].reset();  // before the federation it refers to
      feds[i].reset();
    }
    fed_s = c.span("grid.federation_build", "grid", [&] {
      for (auto& f : feds) f = std::make_unique<grid::Federation>(fc);
    });
    gen_s = c.span("grid.workload_build", "grid", [&] {
      for (int i = 0; i < 2; ++i)
        gens[i] = std::make_unique<grid::WorkloadGenerator>(wc, *feds[i]);
    });
  });

  struct Point {
    grid::GridSimulator::Stats stats;
    wan::FlowEngine::Stats engine;
    sim::Time end;
  };
  Point pts[2];
  std::vector<PointTime> times(2);
  double sweep_s = 0.0;
  c.simulate([&] {
    sweep_s = c.span("util.parallel_for", "util", [&] {
      parallel_for(2, c.threads, [&](std::size_t i) {
        times[i].begin();
        grid::GridSimulator sim(*feds[i], policies[i]);
        sim.run(*gens[i]);
        pts[i] = {sim.stats(), sim.engine_stats(), sim.now()};
        times[i].finish();
      });
    });
  });
  record_points(c, times, "grid.run", "grid");

  c.check([&] {
    c.work = 0.0;
    for (int i = 0; i < 2; ++i) {
      const auto& s = pts[i].stats;
      std::ostringstream bad;
      if (s.requests != s.cache_hits + s.coalesced + s.flows_completed +
                            s.unroutable)
        bad << " request accounting does not balance";
      if (s.unroutable) bad << ' ' << s.unroutable << " unroutable";
      if (pts[i].engine.completed != s.flows_completed ||
          pts[i].engine.started != s.flows_completed)
        bad << " engine flows differ from grid flows";
      if (s.requests != pts[0].stats.requests)
        bad << " policies saw different request streams";
      c.op(grid::placement_name(policies[i]), bad.str());
      c.work += static_cast<double>(s.requests);
      c.digest.add(s.requests);
      c.digest.add(s.cache_hits);
      c.digest.add(s.coalesced);
      c.digest.add(s.flows_completed);
      c.digest.add(s.bytes_moved);
      c.digest.add(s.slowdown_sum);
      c.digest.add(pts[i].engine.recomputes);
      c.digest.add(pts[i].end);
    }
  });
  if (!c.traced()) return;

  // The request stream alone: what next() costs inside GridSimulator::run.
  double next_s = 0.0;
  {
    grid::WorkloadGenerator gen(wc, *feds[0]);
    std::int64_t drained = 0;
    next_s = c.span("grid.workload_next", "grid",
                    [&] { while (gen.next()) ++drained; });
    c.op("workload drain", drained == pts[0].stats.requests
                               ? ""
                               : " drained " + std::to_string(drained));
  }
  const double run_s = sum_seconds(times);
  auto& L = c.layers;
  double requests = 0, hits = 0, coalesced = 0, flows = 0, recomputes = 0,
         updates = 0, stale = 0, peak = 0;
  for (const Point& p : pts) {
    requests += static_cast<double>(p.stats.requests);
    hits += static_cast<double>(p.stats.cache_hits);
    coalesced += static_cast<double>(p.stats.coalesced);
    flows += static_cast<double>(p.stats.flows_completed);
    recomputes += static_cast<double>(p.engine.recomputes);
    updates += static_cast<double>(p.engine.rate_updates);
    stale += static_cast<double>(p.engine.stale_events);
    peak = std::max(peak, static_cast<double>(p.engine.active_peak));
  }
  L["grid.federation_build_s"] = fed_s;
  L["grid.workload_build_s"] = gen_s;
  L["grid.run_s"] = run_s;
  L["grid.workload_next_s"] = 2.0 * next_s;  // each policy drains a stream
  L["grid.sim_self_s"] = run_s - 2.0 * next_s;
  L["grid.workload_next_pct"] = 100.0 * 2.0 * next_s / run_s;
  L["grid.requests"] = requests;
  L["grid.cache_hit_ratio"] = hits / requests;
  L["grid.coalesced"] = coalesced;
  L["wan.flows_completed"] = flows;
  L["wan.recomputes"] = recomputes;
  L["wan.rate_updates"] = updates;
  L["wan.stale_events"] = stale;
  L["wan.active_peak"] = peak;
  L["wan.recomputes_per_flow"] = recomputes / flows;
  L["wan.stale_ratio"] = stale / (stale + updates);
  L["util.parallel_efficiency"] = run_s / (c.threads * sweep_s);
}

// ---------------------------------------------------------------------
// platform_campaign: kPlatformMonths seeded months of the shared
// platform, each under the three checkpoint strategies.

void run_platform(Ctx& c) {
  const mesh::Mesh2D mesh(33, 16);
  const sched::CheckpointStrategy strategies[3] = {
      sched::CheckpointStrategy::Uncoordinated,
      sched::CheckpointStrategy::FifoCooperative,
      sched::CheckpointStrategy::OrderedCooperative,
  };
  constexpr std::size_t kPoints = 3 * kPlatformMonths;
  std::vector<std::vector<sched::PlatformJob>> traces(kPlatformMonths);
  std::vector<sched::PlatformConfig> cfgs(kPoints);
  std::int32_t jobs_per_month = 0;
  double gen_s = 0.0;
  c.setup([&] {
    gen_s = c.span("sched.workload_gen", "sched", [&] {
      for (int k = 0; k < kPlatformMonths; ++k) {
        sched::PlatformWorkloadConfig wc;  // shared_platform defaults
        wc.seed = named_substream(c.seed, "bench.platform.jobs", k).next();
        jobs_per_month = wc.jobs;
        traces[static_cast<std::size_t>(k)] =
            sched::platform_workload(wc, mesh);
      }
    });
    for (std::size_t i = 0; i < kPoints; ++i) {
      cfgs[i].strategy = strategies[i % 3];
      cfgs[i].failure_seed =
          named_substream(c.seed, "bench.platform.faults", i / 3).next();
      cfgs[i].io_disks = 4;
    }
  });

  std::vector<sched::PlatformResult> res(kPoints);
  std::vector<PointTime> times(kPoints);
  double sweep_s = 0.0;
  c.simulate([&] {
    sweep_s = c.span("util.parallel_for", "util", [&] {
      parallel_for(kPoints, c.threads, [&](std::size_t i) {
        times[i].begin();
        sched::PlatformSimulator sim(mesh, cfgs[i]);
        sim.submit(traces[i / 3]);
        res[i] = sim.run();
        times[i].finish();
      });
    });
  });
  record_points(c, times, "sched.platform_run", "sched");

  c.check([&] {
    c.work = 0.0;
    for (std::size_t i = 0; i < kPoints; ++i) {
      const sched::PlatformResult& r = res[i];
      std::ostringstream bad;
      if (!r.balanced()) bad << " node-seconds do not balance";
      if (r.jobs != jobs_per_month) bad << " finished " << r.jobs << " jobs";
      c.op(sched::strategy_name(cfgs[i].strategy), bad.str());
      c.work += static_cast<double>(r.jobs);
      c.digest.add(r.makespan);
      c.digest.add(r.useful_node_seconds);
      c.digest.add(r.lost_node_seconds);
      c.digest.add(r.rollbacks);
      c.digest.add(r.ckpts_committed);
      c.digest.add(r.io.bytes_completed);
    }
  });
  if (!c.traced()) return;

  // The fault trace each point generates inside PlatformSimulator::run.
  std::size_t events = 0;
  const double fault_s = c.span("fault.trace_gen", "fault", [&] {
    for (const sched::PlatformConfig& cfg : cfgs) {
      fault::FaultConfig fc;
      fc.seed = cfg.failure_seed;
      fc.node_mtbf = cfg.node_mtbf;
      fc.horizon = sim::Time::sec(cfg.failure_horizon_days * 86400.0);
      events += fault::generate_fault_trace(fc, mesh).size();
    }
  });
  c.op("fault trace", events ? "" : " no fault events");

  const double run_s = sum_seconds(times);
  double jobs = 0, backfilled = 0, rollbacks = 0, ckpts = 0, peak = 0,
         bytes = 0;
  for (const sched::PlatformResult& r : res) {
    jobs += static_cast<double>(r.jobs);
    backfilled += static_cast<double>(r.backfilled);
    rollbacks += static_cast<double>(r.rollbacks);
    ckpts += static_cast<double>(r.ckpts_committed);
    peak = std::max(peak, static_cast<double>(r.io.peak_active));
    bytes += static_cast<double>(r.io.bytes_completed);
  }
  auto& L = c.layers;
  L["sched.workload_gen_s"] = gen_s;
  L["sched.platform_run_s"] = run_s;
  L["sched.self_s"] = run_s - fault_s;
  L["fault.trace_gen_s"] = fault_s;
  L["fault.trace_gen_pct"] = 100.0 * fault_s / run_s;
  L["sched.jobs"] = jobs;
  L["sched.backfilled"] = backfilled;
  L["sched.rollbacks"] = rollbacks;
  L["sched.ckpts_committed"] = ckpts;
  L["io.peak_active"] = peak;
  L["io.bytes_completed"] = bytes;
  L["util.parallel_efficiency"] = run_s / (c.threads * sweep_s);
}

// ---------------------------------------------------------------------
// The workloads.

struct Workload {
  const char* name;
  const char* why;
  const char* work_unit;
  int threads;  // fixed; never more than the 4 cores of the reference host
  void (*run)(Ctx&);
  const char* speedup_metric;  // traced: 1-thread oracle vs `threads`
};

constexpr Workload kWorkloads[] = {
    {"hpl_delta",
     "the paper's LINPACK point on the calibrated 528-node Delta: one LU "
     "schedule derived by coroutines then replayed; no sharding, wan, "
     "grid, sched or flit work",
     "events", 1, run_hpl_delta, nullptr},
    {"columbia_lu_t4",
     "16,384-rank Columbia LU on the 4-thread sharded engine, ~2.5 "
     "intents per lookahead window and slower than 1 thread like the "
     "full-scale run: the case the engine must fix or lose",
     "events", 4, run_columbia_lu, "nx.shard.speedup"},
    {"columbia_cg_t4",
     "the same machine and engine running CG with ~30 intents per "
     "window, so a window change that helps LU but costs CG shows here",
     "events", 4, run_columbia_cg, "nx.shard.speedup"},
    {"flit_columbia_t4",
     "4-thread flit network on a 128x128 mesh, saturated uniform then "
     "sparse transpose traffic (idle skip, fast-forward); bypasses the "
     "DES engine",
     "flit-hops", 4, run_flit, "mesh.flit.speedup"},
    {"grid_day",
     "a federation day of wan flows and grid caching, two placement "
     "policies on 2 parallel_for workers; no nx or mesh work",
     "requests", 2, run_grid, nullptr},
    {"platform_campaign",
     "16 seeded months x 3 checkpoint strategies of the shared platform "
     "on 4 parallel_for workers: sched, io and fault on engine callbacks",
     "jobs", 4, run_platform, nullptr},
};

// ---------------------------------------------------------------------
// Output.

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

std::string metric_list(const MetricSpec* specs, std::size_t n,
                        bool with_bound) {
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    const MetricSpec& m = specs[i];
    out += std::string(i ? ",\n    " : "\n    ") + "{\"name\": " +
           quote(m.name) + ", \"unit\": " + quote(m.unit) +
           ", \"better\": " + quote(m.better);
    if (with_bound) out += ", \"bound\": " + num(m.bound);
    out += "}";
  }
  return out + "\n  ]";
}

std::string manifest_json() {
  std::string w = "[";
  bool first = true;
  for (const Workload& wl : kWorkloads) {
    w += std::string(first ? "\n    " : ",\n    ") +
         "{\"name\": " + quote(wl.name) + ", \"why\": " + quote(wl.why) +
         ", \"work_unit\": " + quote(wl.work_unit) +
         ", \"threads\": " + std::to_string(wl.threads) + "}";
    first = false;
  }
  w += "\n  ]";
  return "{\n  \"run_seconds\": " + std::to_string(kRunSeconds) +
         ",\n  \"workloads\": " + w + ",\n  \"end_to_end\": " +
         metric_list(kEndToEnd, std::size(kEndToEnd), true) +
         ",\n  \"per_layer\": " +
         metric_list(kPerLayer, std::size(kPerLayer), false) + "\n}\n";
}

std::string value_map(const std::map<std::string, double>& m,
                      const MetricSpec* specs, std::size_t n) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = m.find(specs[i].name);
    out += std::string(i ? ", " : "") + quote(specs[i].name) +
           ": {\"value\": " + num(it == m.end() ? 0.0 : it->second) +
           ", \"unit\": " + quote(specs[i].unit) + "}";
  }
  return out + "}";
}

std::string plain_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m)
    out += std::string(out.size() > 1 ? ", " : "") + quote(k) + ": " + num(v);
  return out + "}";
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  return static_cast<bool>(os);
}

/// Scales a host time to kReferenceProbeUs, given the probe time sampled
/// while it was measured.
double speed_factor(double probe_us) {
  return probe_us > 0.0 ? kReferenceProbeUs / probe_us : 1.0;
}

/// One iteration's raw host times, and the probe time sampled while it
/// ran.
struct Sample {
  double wall_s, setup_s, simulate_s, check_s, cpu_s, work, probe_us;
  double speed() const { return speed_factor(probe_us); }
};

std::string sample_json(const Sample& s, bool traced) {
  return "{\"traced\": " + std::string(traced ? "true" : "false") +
         ", \"wall_s\": " + num(s.wall_s) + ", \"setup_s\": " +
         num(s.setup_s) + ", \"simulate_s\": " + num(s.simulate_s) +
         ", \"check_s\": " + num(s.check_s) + ", \"cpu_s\": " +
         num(s.cpu_s) + ", \"work\": " + num(s.work) +
         ", \"probe_us\": " + num(s.probe_us) + "}";
}

template <class Fn>
double median_of(const std::vector<Sample>& v, Fn&& f) {
  std::vector<double> xs;
  xs.reserve(v.size());
  for (const Sample& s : v) xs.push_back(f(s));
  return median(xs);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("hpccbench", "outside-in benchmark of hpccsim");
  args.add_option("workload", "workload name (see --list)", "");
  args.add_option("seed", "input seed", "1992");
  args.add_option("seconds", "host seconds to repeat iterations for",
                  std::to_string(kRunSeconds));
  args.add_option("trace",
                  "traced run: write PREFIX.trace.json and PREFIX.layers.json",
                  "");
  args.add_option("lu-n",
                  "LU order of hpl_delta and columbia_lu_t4 (0 = the "
                  "workload's own)",
                  "0");
  args.add_flag("list", "write the manifest to --json and exit");
  args.add_json_option();
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (args.flag("help")) {
    std::printf("%s", args.usage().c_str());
    return 0;
  }
  const std::string json_path = args.json_path();
  if (json_path.empty()) {
    std::fprintf(stderr, "hpccbench: --json OUT is required\n");
    return 2;
  }
  if (args.flag("list")) return write_text(json_path, manifest_json()) ? 0 : 2;

  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (args.str("workload") == cand.name) w = &cand;
  if (!w) {
    std::fprintf(stderr, "hpccbench: unknown --workload '%s'\n",
                 args.str("workload").c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const double seconds = args.real("seconds");
  const std::string prefix = args.str("trace");
  const bool tracing = !prefix.empty();
  const std::int64_t lu_n = args.integer("lu-n");

  const double probe_ms = host_probe_ms();
  SpeedSampler sampler(confine_to(w->threads));
  obs::TraceWriter writer;
  writer.set_track_name(0, "main");
  for (int t = 1; t <= w->threads; ++t)
    writer.set_track_name(t, "worker " + std::to_string(t - 1));

  // Iterate until `seconds` have passed. A traced run alternates,
  // starting untraced so the traced iterations run warm.
  std::vector<Sample> plain, traced;
  std::vector<std::map<std::string, double>> layer_samples;
  std::uint64_t attempted = 0, failed = 0, digest = 0;
  std::vector<std::string> errors;
  bool consistent = true;
  const Clock::time_point start = Clock::now();
  for (int it = 0;; ++it) {
    Ctx c;
    c.seed = seed;
    c.threads = w->threads;
    c.lu_n = lu_n;
    const bool trace_it = tracing && it % 2 == 1;
    if (trace_it) c.trace = &writer;
    sampler.take_us();
    const double cpu0 = cpu_seconds() - sampler.cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const sim::Time h0 = host_now();
    try {
      w->run(c);
    } catch (const std::exception& e) {
      ++c.attempted;
      ++c.failed;
      c.errors.push_back(std::string("exception: ") + e.what());
    }
    // One iteration sets up once: the repeated set-ups, which run on this
    // thread alone, are left out.
    const double wall_s = seconds_since(t0) - c.setup_repeats_s;
    const double cpu_s =
        cpu_seconds() - sampler.cpu_seconds() - cpu0 - c.setup_repeats_s;
    const Sample s{wall_s, c.setup_s, c.simulate_s,     c.check_s,
                   cpu_s,  c.work,    sampler.take_us()};
    if (trace_it) {
      writer.complete(0, "iteration " + std::to_string(it), "bench", h0,
                      host_now());
      traced.push_back(s);
      layer_samples.push_back(c.layers);
    } else {
      plain.push_back(s);
    }
    attempted += c.attempted;
    failed += c.failed;
    errors.insert(errors.end(), c.errors.begin(), c.errors.end());
    if (it == 0) digest = c.digest.value();
    if (c.digest.value() != digest) {
      consistent = false;
      errors.push_back("iteration " + std::to_string(it) +
                       " changed the sim_digest");
    }
    std::printf("%s iteration %d%s: wall %.3f s (setup %.3f, simulate %.3f, "
                "check %.3f), cpu %.3f s, work %.0f\n",
                w->name, it, trace_it ? " traced" : "", s.wall_s, s.setup_s,
                s.simulate_s, s.check_s, s.cpu_s, s.work);
    if (c.failed) break;
    if (seconds_since(start) >= seconds && (!tracing || !traced.empty()))
      break;
  }

  std::map<std::string, double> layers;
  double overhead_s = 0.0;
  if (tracing && failed == 0) {
    // Per-layer values: medians over the traced iterations.
    std::map<std::string, std::vector<double>> by_key;
    for (const auto& m : layer_samples)
      for (const auto& [k, v] : m) by_key[k].push_back(v);
    for (auto& [k, v] : by_key) layers[k] = median(v);
    layers["bench.setup_s"] =
        median_of(traced, [](const Sample& s) { return s.setup_s; });
    layers["bench.simulate_s"] =
        median_of(traced, [](const Sample& s) { return s.simulate_s; });
    layers["bench.check_s"] =
        median_of(traced, [](const Sample& s) { return s.check_s; });
    const auto wall = [](const Sample& s) { return s.wall_s * s.speed(); };
    overhead_s = median_of(traced, wall) - median_of(plain, wall);
    layers["obs.trace_overhead_s"] = overhead_s;

    if (w->speedup_metric) {
      // The 1-thread oracle: identical simulated results and
      // thread-invariant counters, i.e. the same sim_digest.
      Ctx o;
      o.seed = seed;
      o.threads = 1;
      o.lu_n = lu_n;
      sampler.take_us();
      const sim::Time h0 = host_now();
      try {
        w->run(o);
      } catch (const std::exception& e) {
        ++o.failed;
        o.errors.push_back(std::string("exception: ") + e.what());
      }
      writer.complete(0, "oracle (1 thread)", "bench", h0, host_now());
      const double oracle_speed = speed_factor(sampler.take_us());
      ++attempted;
      if (o.failed || o.digest.value() != digest) {
        ++failed;
        errors.push_back("1-thread oracle differs from " +
                         std::to_string(w->threads) + " threads");
        errors.insert(errors.end(), o.errors.begin(), o.errors.end());
      }
      // Both sides at the reference host speed.
      const double sharded = median_of(
          plain, [](const Sample& s) { return s.simulate_s * s.speed(); });
      layers["oracle.simulate_s"] = o.simulate_s;
      layers[w->speedup_metric] = o.simulate_s * oracle_speed / sharded;
    }

    const Clock::time_point e0 = Clock::now();
    if (!writer.write_file(prefix + ".trace.json")) {
      ++failed;
      errors.push_back("cannot write " + prefix + ".trace.json");
    }
    layers["obs.export_s"] = seconds_since(e0);
    if (!write_text(prefix + ".layers.json",
                    "{\"workload\": " + quote(w->name) +
                        ", \"seed\": " + std::to_string(seed) +
                        ", \"layers\": " + plain_map(layers) + "}\n")) {
      ++failed;
      errors.push_back("cannot write " + prefix + ".layers.json");
    }
    std::printf("%s tracing overhead: %+.3f s per iteration (traced minus "
                "untraced wall_s)\n",
                w->name, overhead_s);
  }

  // Host times at the reference host speed (SpeedSampler).
  std::map<std::string, double> e2e;
  e2e["wall_s"] = median_of(
      plain, [](const Sample& s) { return s.wall_s * s.speed(); });
  e2e["setup_s"] = median_of(
      plain, [](const Sample& s) { return s.setup_s * s.speed(); });
  e2e["work_rate"] = median_of(plain, [](const Sample& s) {
    return s.work / (s.simulate_s * s.speed());
  });
  e2e["cpu_s"] = median_of(
      plain, [](const Sample& s) { return s.cpu_s * s.speed(); });
  e2e["peak_rss_mib"] = peak_rss_mib();

  const bool correct = failed == 0 && consistent;
  std::string iters = "[";
  for (const Sample& s : plain)
    iters += std::string(iters.size() > 1 ? ", " : "") + sample_json(s, false);
  for (const Sample& s : traced)
    iters += std::string(iters.size() > 1 ? ", " : "") + sample_json(s, true);
  iters += "]";
  std::string errs = "[";
  for (const std::string& e : errors)
    errs += std::string(errs.size() > 1 ? ", " : "") + quote(e);
  errs += "]";
  const std::string out =
      "{\"workload\": " + quote(w->name) + ", \"seed\": " +
      std::to_string(seed) + ", \"traced\": " + (tracing ? "true" : "false") +
      ", \"threads\": " + std::to_string(w->threads) + ", \"work_unit\": " +
      quote(w->work_unit) + ", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"host_probe_ms\": " + num(probe_ms) + ", \"sampled_probe_us\": " +
      num(median_of(plain, [](const Sample& s) { return s.probe_us; })) +
      ", \"sim_digest\": " +
      quote(hex(digest)) + ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " +
      std::to_string(failed) + ", \"errors\": " + errs +
      ",\n \"metrics\": " +
      (tracing ? value_map(layers, kPerLayer, std::size(kPerLayer))
               : value_map(e2e, kEndToEnd, std::size(kEndToEnd))) +
      ",\n \"layers\": " + plain_map(layers) + ",\n \"iterations\": " + iters +
      "}\n";
  if (!write_text(json_path, out)) {
    std::fprintf(stderr, "hpccbench: cannot write %s\n", json_path.c_str());
    return 2;
  }
  for (const std::string& e : errors)
    std::fprintf(stderr, "hpccbench: CHECK FAILED %s\n", e.c_str());
  return correct ? 0 : 1;
}
