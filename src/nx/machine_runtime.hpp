// NxMachine: builds a simulated machine (engine + network + node
// contexts) from a MachineConfig and runs an SPMD program on it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/task.hpp"
#include "mesh/analytical.hpp"
#include "mesh/netmodel.hpp"
#include "nx/context.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "proc/machine.hpp"
#include "proc/node_state.hpp"

namespace hpccsim::nx {

/// Which interconnect model backs the machine.
enum class NetKind {
  AnalyticalMesh,  ///< wormhole-mesh link-reservation model (default)
  Crossbar,        ///< ideal contention-free network (ablation baseline)
};

/// Rank counts below this always run sequentially: band scheduling
/// overhead dwarfs any win, and small machines are where tests exercise
/// engine-state edge cases the parallel path excludes.
inline constexpr int kParallelMinNodes = 64;

/// Totals one parallel (rank-band sharded) run folds back into its
/// machine. Accumulated across runs so snapshot_counters() reports
/// engine totals equal to what the sequential engine would have
/// counted, plus the engine.shard.* diagnostics (docs/METRICS.md).
struct ParRunTotals {
  std::uint64_t events = 0;           ///< events across all band engines
  std::uint64_t calls_scheduled = 0;
  std::uint64_t peak_queue_depth = 0;      ///< max over bands
  std::uint64_t call_slot_high_water = 0;  ///< max over bands
  std::uint64_t windows = 0;       ///< conservative-lookahead windows run
  std::uint64_t intents = 0;       ///< deferred network handoffs replayed
  std::uint64_t handoffs = 0;      ///< intents that crossed a band boundary
  std::uint64_t window_skips = 0;  ///< idle gaps the window start jumped
  std::uint64_t runs = 0;
  int bands = 0;  ///< band count of the most recent parallel run
};

/// One message in the machine's communication trace.
struct MessageTraceRecord {
  sim::Time depart;   ///< last byte leaves the source NIC queue
  sim::Time arrive;   ///< last byte lands at the destination NIC
  int src = 0;
  int dst = 0;
  int tag = 0;
  Bytes bytes = 0;
};

class NxMachine {
 public:
  explicit NxMachine(proc::MachineConfig config,
                     NetKind net = NetKind::AnalyticalMesh);

  /// An SPMD node program: one coroutine per node.
  using Program = std::function<sim::Task<>(NxContext&)>;

  /// Runs `program` on every node to completion; returns elapsed
  /// simulated time. May be called repeatedly (time accumulates).
  sim::Time run(const Program& program);

  /// Shard the engine across up to `n` host threads by contiguous rank
  /// bands (src/nx/parallel_engine.*, docs/MODEL.md §15). 1 (default)
  /// runs sequentially; higher counts silently fall back to sequential
  /// whenever a run is not parallel_eligible(). Byte-identical results
  /// at any thread count is the contract, not a best effort.
  void set_threads(int n);
  int threads() const { return threads_; }

  /// Would the next run() take the parallel path? Requires threads > 1,
  /// at least kParallelMinNodes ranks, no fault injector attached (its
  /// crashes and the checkpoint layer's shared state live on the machine
  /// engine), no Chrome-trace writer (emits from inside windows), a
  /// positive send_overhead (the lookahead window), a network model with
  /// a positive latency floor, and an idle machine engine.
  bool parallel_eligible() const;

  int nodes() const { return config_.node_count(); }
  const proc::MachineConfig& config() const { return config_; }
  sim::Engine& engine() { return engine_; }
  mesh::NetworkModel& network() { return *net_; }
  NxContext& context(int rank) { return *contexts_.at(rank); }

  /// Aggregate statistics over all nodes.
  NodeStats total_stats() const;

  /// Record every message (depart/arrive/src/dst/tag/bytes). Off by
  /// default; tracing a 25,000-order LU would record ~3.4M rows.
  void enable_message_trace(bool on = true) { trace_enabled_ = on; }
  const std::vector<MessageTraceRecord>& message_trace() const {
    return trace_;
  }
  /// CSV dump of the trace (header + one row per message).
  std::string message_trace_csv() const;

  /// Hand a message to the network and record it in the message trace;
  /// returns the arrival of its last byte at the destination NIC.
  /// Internal: the one network handoff of NxContext sends and of the
  /// sharded engine's replay.
  sim::Time transfer_message(int src, int dst, int tag, Bytes bytes,
                             sim::Time depart) {
    const sim::Time arrival = net_->transfer(src, dst, bytes, depart);
    if (trace_enabled_)
      trace_.push_back({depart, arrival, src, dst, tag, bytes});
    return arrival;
  }

  /// The machine's observability registry. Collective latency
  /// histograms are recorded live (src/nx/collectives.cpp); everything
  /// natively counted elsewhere (engine, network, node stats) is folded
  /// in by snapshot_counters(). Deterministic: same scenario, same dump.
  obs::Registry& counters() { return registry_; }
  const obs::Registry& counters() const { return registry_; }

  /// The machine registry's collective latency histograms, cached by
  /// kind so the collective hot path never rebuilds a name string.
  CollectiveHistograms& collective_histograms() { return coll_hist_; }

  /// Pull engine/network/node/CFS-independent totals into counters()
  /// under their catalog names (docs/METRICS.md) and return it. Safe to
  /// call repeatedly — snapshotted values are set, not re-added.
  obs::Registry& snapshot_counters();

  /// Opt-in Chrome-trace recording (null = off, the default; hook sites
  /// pay one pointer test). The writer must outlive the run.
  void set_trace_writer(obs::TraceWriter* trace);
  obs::TraceWriter* trace_writer() const { return trace_writer_; }

  /// Runtime node health (all up by default; src/fault flips entries).
  proc::NodeStateTable& node_state() { return node_state_; }
  const proc::NodeStateTable& node_state() const { return node_state_; }

  /// A fault injector (src/fault) attaches for its lifetime; while one
  /// is attached the machine stays sequential (parallel_eligible()).
  void set_fault_injector_attached(bool attached) {
    fault_injector_attached_ = attached;
  }

  /// Messages discarded at a down node's NIC or purged from a crashed
  /// node's mailbox.
  std::uint64_t messages_dropped() const { return messages_dropped_; }
  void note_dropped_message() { ++messages_dropped_; }  ///< internal

 private:
  /// The parallel path of run().
  sim::Time run_parallel(const Program& program);

  proc::MachineConfig config_;
  sim::Engine engine_;
  std::unique_ptr<mesh::NetworkModel> net_;
  std::vector<std::unique_ptr<NxContext>> contexts_;
  proc::NodeStateTable node_state_;
  obs::Registry registry_;
  CollectiveHistograms coll_hist_{registry_};
  obs::TraceWriter* trace_writer_ = nullptr;
  bool fault_injector_attached_ = false;
  int threads_ = 1;
  ParRunTotals par_;  ///< accumulated over every parallel run
  std::uint64_t messages_dropped_ = 0;
  bool trace_enabled_ = false;
  std::vector<MessageTraceRecord> trace_;
};

/// The engine callback that lands a message in its destination mailbox
/// at arrival, scheduled by both network handoffs. Down-node discard is
/// decided then: a node that crashed while the message was in flight
/// loses it at the NIC.
struct Delivery {
  NxMachine* machine;
  int dst;
  Message msg;

  void operator()() {
    if (!machine->node_state().up(dst)) {
      machine->note_dropped_message();
      return;
    }
    machine->context(dst).mailbox().deliver(std::move(msg));
  }
};
// Hottest schedule_call site in the simulator: every message delivery.
// It must fit the engine callback's inline buffer so deliveries never
// heap-allocate (docs/PERF.md, allocation behaviour).
static_assert(sim::Callback::fits_inline<Delivery>);
// The coroutine frames of every rank's program hold Messages, so their
// size is paid per rank: a 32-byte Message (a shared_ptr payload
// handle) cost 13.6 MiB of peak RSS on the 16,384-rank Columbia LU.
static_assert(sizeof(Message) == 24);

}  // namespace hpccsim::nx
