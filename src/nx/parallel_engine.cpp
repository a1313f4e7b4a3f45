// Rank-band sharded engine (see parallel_engine.hpp and docs/MODEL.md
// §15 for the model-level correctness argument).
//
// Thread architecture: the bands run on the process-wide WorkerPool
// (core/barrier.hpp) the flit network's sharded scheduler shares. Band
// 0 always runs on the coordinating thread, so band 0's frame arena is
// the machine thread's own, and band i runs on worker i-1 for the whole
// run. A run is three command kinds:
//
//   Start   create each band's Engine, rebind the band's contexts to
//           it, spawn the band's node programs;
//   Window  run every event strictly before the window edge;
//   Finish  rebind contexts to the machine engine and destroy the band
//           engine on the thread that created its coroutine frames.
//
// Between Window commands the coordinator (alone, workers idle)
// replays every LaunchIntent the last window captured against the
// shared NetworkModel in (departure, src, capture order) order — the
// order the sequential engine would have made those transfer() calls,
// up to same-picosecond cross-rank ties. All inter-band memory
// visibility rides on the BurstGate's release/acquire pairs; no band
// state needs atomics of its own.
#include "nx/parallel_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/barrier.hpp"
#include "util/assert.hpp"

namespace hpccsim::nx::par {
namespace {

/// Upper bound on bands: beyond this, window synchronization overhead
/// outgrows any realistic host's ability to pay it back.
constexpr int kMaxBands = 32;

/// One contiguous rank band. Written by exactly one thread during a
/// command; the coordinator reads/writes between commands (visibility
/// via the BurstGate). Padded so neighbouring bands never share a line.
struct alignas(64) Band {
  int first = 0;  ///< first rank (inclusive)
  int last = -1;  ///< last rank (inclusive)
  std::unique_ptr<sim::Engine> engine;
  std::vector<LaunchIntent> intents;  ///< captured during the window
  std::uint64_t captured = 0;         ///< intents collected so far
  obs::Registry coll_registry;        ///< band-private collective hists
  CollectiveHistograms coll_hist{coll_registry};
  std::int64_t next_ps = sim::Engine::kNoPendingEvent;
  std::exception_ptr error;
};

/// The command the coordinator dispatches to every band.
struct Job {
  enum Cmd { Start, Window, Finish };
  Cmd cmd = Start;
  std::int64_t start_ps = 0;       ///< machine clock at run start
  std::int64_t window_end_ps = 0;  ///< exclusive edge for Window
  NxMachine* machine = nullptr;
  const NxMachine::Program* program = nullptr;
};

/// Executes one command for one band on the current thread. Never
/// throws: a failure parks the band (sentinel next_ps) and records the
/// exception for the coordinator to rethrow in band order.
void run_band_command(const Job& job, Band& b) {
  try {
    switch (job.cmd) {
      case Job::Start: {
        b.engine = std::make_unique<sim::Engine>();
        b.engine->run_until(sim::Time::ps(job.start_ps));
        for (int r = b.first; r <= b.last; ++r) {
          NxContext& ctx = job.machine->context(r);
          ctx.set_engine(*b.engine);
          ctx.set_intent_sink(&b.intents);
          ctx.set_collective_histograms(&b.coll_hist);
        }
        for (int r = b.first; r <= b.last; ++r) {
          NxContext& ctx = job.machine->context(r);
          b.engine->spawn((*job.program)(ctx), "node" + std::to_string(r));
        }
        b.next_ps = b.engine->next_event_time_ps();
        break;
      }
      case Job::Window: {
        b.engine->run_window(sim::Time::ps(job.window_end_ps));
        b.next_ps = b.engine->next_event_time_ps();
        break;
      }
      case Job::Finish: {
        for (int r = b.first; r <= b.last; ++r) {
          NxContext& ctx = job.machine->context(r);
          ctx.set_engine(job.machine->engine());
          ctx.set_intent_sink(nullptr);
          ctx.set_collective_histograms(nullptr);
        }
        // Destroy the band engine here, on the thread whose FrameArena
        // allocated its coroutine frames.
        b.engine.reset();
        break;
      }
    }
  } catch (...) {
    b.error = std::current_exception();
    b.next_ps = sim::Engine::kNoPendingEvent;
  }
}

}  // namespace

ParRunTotals run_sharded(NxMachine& machine, int threads,
                         const NxMachine::Program& program) {
  const int nodes = machine.nodes();
  const int band_count = std::min({threads, kMaxBands, nodes});
  // Every send is captured when posted, at least one send_overhead
  // before it departs (docs/MODEL.md §15).
  const auto lookahead_ps =
      static_cast<std::int64_t>(machine.config().send_overhead.picoseconds());
  HPCCSIM_EXPECTS(lookahead_ps > 0);
  const std::int64_t start_ps = machine.engine().now().picoseconds();

  // Contiguous partition: nodes/bands each, remainder to the low bands.
  std::vector<Band> bands(static_cast<std::size_t>(band_count));
  const int base = nodes / band_count;
  const int rem = nodes % band_count;
  {
    int first = 0;
    for (int i = 0; i < band_count; ++i) {
      const int size = base + (i < rem ? 1 : 0);
      bands[static_cast<std::size_t>(i)].first = first;
      bands[static_cast<std::size_t>(i)].last = first + size - 1;
      first += size;
    }
  }
  // Closed-form inverse of the partition above.
  const int cut = rem * (base + 1);
  auto band_of = [base, rem, cut](int r) {
    return r < cut ? r / (base + 1) : rem + (r - cut) / base;
  };

  WorkerPool& pool = WorkerPool::instance();
  const auto hold = pool.acquire(band_count);

  Job job;
  job.start_ps = start_ps;
  job.machine = &machine;
  job.program = &program;
  const auto dispatch = [&](Job::Cmd cmd) {
    job.cmd = cmd;
    pool.dispatch(band_count, [&](int i) {
      run_band_command(job, bands[static_cast<std::size_t>(i)]);
    });
  };

  ParRunTotals totals;
  totals.runs = 1;
  totals.bands = band_count;

  // The last window's captures, sorted by (depart, src, seq).
  std::vector<LaunchIntent> pending;
  std::exception_ptr coord_error;
  try {
    dispatch(Job::Start);

    std::int64_t prev_end_ps = 0;
    bool first_window = true;
    for (;;) {
      std::int64_t t0 = sim::Engine::kNoPendingEvent;
      bool band_failed = false;
      for (const Band& b : bands) {
        t0 = std::min(t0, b.next_ps);
        if (b.error) band_failed = true;
      }
      if (band_failed) break;

      // Serial network phase: workers are idle, so the coordinator
      // owns the NetworkModel, the trace, and every band engine. The
      // next window starts at t0 and can only capture sends departing at
      // or after t0 + L. Every send departs exactly L after it is posted,
      // so each of the last window's captures departs before that and
      // precedes, in the sequential engine's transfer order, all that is
      // not captured yet: replay them all. A delivery can pull t0
      // earlier, to its arrival, which is still after its departure.
      for (LaunchIntent& in : pending) {
        HPCCSIM_ASSERT(t0 == sim::Engine::kNoPendingEvent ||
                       static_cast<std::int64_t>(in.depart.picoseconds()) <
                           t0 + lookahead_ps);
        const sim::Time arrival = machine.transfer_message(
            in.src, in.dst, in.tag, in.bytes, in.depart);
        Band& db = bands[static_cast<std::size_t>(band_of(in.dst))];
        // Every band's clock sits at the last window edge, at or before
        // the departure. The sequential engine schedules the delivery
        // during the departure instant, so it goes into the queue there:
        // after events the band still runs up to that instant, ahead of
        // events scheduled later for the same arrival picosecond.
        Message msg{in.src, in.tag, in.bytes, std::move(in.payload)};
        db.engine->schedule_call_deferred(
            in.depart, arrival, Delivery{&machine, in.dst, std::move(msg)});
        const auto arrival_ps =
            static_cast<std::int64_t>(arrival.picoseconds());
        db.next_ps = std::min(db.next_ps, arrival_ps);
        t0 = std::min(t0, arrival_ps);
        ++totals.intents;
        if (band_of(in.src) != band_of(in.dst)) ++totals.handoffs;
      }
      pending.clear();
      if (t0 == sim::Engine::kNoPendingEvent) break;

      if (!first_window && t0 > prev_end_ps) ++totals.window_skips;
      first_window = false;
      const std::int64_t end_ps = t0 + lookahead_ps;
      job.window_end_ps = end_ps;
      dispatch(Job::Window);
      prev_end_ps = end_ps;
      ++totals.windows;

      // Collect the window's captures. Equal departures were posted on
      // the same picosecond and go by source rank, then by capture order
      // — seq counts a band's captures over the whole run, and a rank
      // lives in exactly one band, so it is that rank's program order.
      // The key is unique, so plain sort (no allocation) is stable
      // enough.
      for (Band& b : bands) {
        for (LaunchIntent& in : b.intents) {
          in.seq = b.captured++;
          pending.push_back(std::move(in));
        }
        b.intents.clear();
      }
      std::sort(pending.begin(), pending.end(),
                [](const LaunchIntent& a, const LaunchIntent& b) {
                  return std::tie(a.depart, a.src, a.seq) <
                         std::tie(b.depart, b.src, b.seq);
                });
    }
  } catch (...) {
    coord_error = std::current_exception();
  }

  std::exception_ptr band_error;
  for (const Band& b : bands)
    if (b.error) {
      band_error = b.error;  // lowest band index, like sequential order
      break;
    }

  // Collect engine totals before Finish destroys the band engines.
  std::int64_t final_ps = start_ps;
  std::size_t still_blocked = 0;
  std::string unfinished;
  if (!coord_error && !band_error) {
    for (const Band& b : bands) {
      totals.events += b.engine->events_processed();
      totals.calls_scheduled += b.engine->calls_scheduled();
      totals.peak_queue_depth =
          std::max(totals.peak_queue_depth, b.engine->peak_queue_depth());
      totals.call_slot_high_water = std::max(
          totals.call_slot_high_water,
          static_cast<std::uint64_t>(b.engine->call_slot_high_water()));
      final_ps = std::max(final_ps, b.engine->last_window_event_ps());
      still_blocked += b.engine->live_process_count();
      b.engine->append_unfinished_names(unfinished);
    }
    // Band-private collective histograms fold in band (= rank) order;
    // histogram merge is commutative anyway, so dumps stay identical.
    for (const Band& b : bands) machine.counters().merge(b.coll_registry);
  }

  dispatch(Job::Finish);

  if (band_error) std::rethrow_exception(band_error);
  if (coord_error) std::rethrow_exception(coord_error);
  if (still_blocked > 0) {
    // Bands are rank-ordered, so the name list matches the sequential
    // engine's deadlock report.
    std::ostringstream os;
    os << "deadlock: event queue empty but " << still_blocked
       << " process(es) still blocked:" << unfinished;
    throw sim::DeadlockError(os.str());
  }

  // Land the machine clock exactly where the sequential engine's run()
  // would have left it: the time of the last dispatched event.
  machine.engine().run_until(sim::Time::ps(final_ps));
  return totals;
}

}  // namespace hpccsim::nx::par
