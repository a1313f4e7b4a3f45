// Space-shared production scheduling with interfering checkpoints.
//
// The testbed's one job scheduler: jobs arrive over time, take a
// rectangle of the mesh FCFS or with EASY backfill, run, and free it.
// It serves the consortium day (bench/testbed_ops: no failures, no
// checkpoints) and the month of production (bench/shared_platform):
// what does a month on a teraflop-class machine *cost* when thousands
// of space-shared jobs all checkpoint through one parallel file system?
// Following Herault/Robert et al. ("Optimal Cooperative Checkpointing
// for Shared HPC Platforms", INRIA RR-9109), concurrent checkpoints
// share the CFS bandwidth, so checkpoint *ordering* is a platform
// policy, not a per-job one.
//
// Job lifecycle on the engine (plain callbacks, incarnation-guarded):
//   queued -> running { computing | waiting-io | writing | restoring }
//          -> done.
// A job asks for a fixed rectangle, or for a node count whose shape
// PartitionAllocator::allocate_nodes picks at dispatch (the testbed's
// near-square rule). Each job checkpoints every Daly interval of its
// own footprint/MTBF; node crashes (a pure fault trace from src/fault)
// roll the victim back to its last committed checkpoint. Checkpoint
// and restore traffic is costed through io::SharedBandwidth, where the
// strategies differ:
//
//   Uncoordinated  — the Young/Daly baseline: a due checkpoint starts
//                    writing immediately; concurrent writes share the
//                    bandwidth and stretch each other, and the job is
//                    blocked for the whole stretched write.
//   FifoCooperative — due checkpoints queue at a platform I/O
//                    scheduler that grants ONE writer at a time at full
//                    bandwidth, in request order. A waiting job keeps
//                    computing; its checkpoint covers all work up to
//                    the grant (the cooperative trick: waiting is not
//                    wasted).
//   OrderedCooperative — as FIFO, but the grant order is
//                    smallest-write-first, which drains the queue with
//                    the least aggregate blocking.
//
// Restores always start immediately in every strategy (a rolled-back
// partition is dead capacity; politeness would only add waste) and
// share bandwidth with whatever else is in flight.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/engine.hpp"
#include "io/bandwidth.hpp"
#include "obs/counters.hpp"
#include "sched/partition.hpp"
#include "sched/workload.hpp"
#include "util/stats.hpp"

namespace hpccsim::sched {

enum class SchedulePolicy {
  FCFS,          ///< strict queue order; head-of-line blocking
  EasyBackfill,  ///< later jobs may jump ahead if they cannot delay the
                 ///< reserved start of the queue head
};

const char* policy_name(SchedulePolicy p);

enum class CheckpointStrategy {
  Uncoordinated,       ///< per-job Young/Daly timers, bandwidth-shared
  FifoCooperative,     ///< serialized writes, request order
  OrderedCooperative,  ///< serialized writes, smallest-write-first
};

const char* strategy_name(CheckpointStrategy s);

struct PlatformConfig {
  SchedulePolicy policy = SchedulePolicy::EasyBackfill;
  CheckpointStrategy strategy = CheckpointStrategy::Uncoordinated;

  /// Per-node MTBF driving the platform fault trace and the per-job
  /// Daly intervals (zero disables failures and checkpoints).
  sim::Time node_mtbf = sim::Time::sec(50.0 * 86400.0);
  std::uint64_t failure_seed = 1;  ///< common across strategy sweep points
  /// Fault-trace horizon in days (crashes past the last completion are
  /// harmless no-ops).
  double failure_horizon_days = 90.0;

  /// CFS disks: all checkpoint/restore traffic shares their aggregate
  /// effective_cfs_bandwidth (era CfsConfig).
  std::int32_t io_disks = 16;
};

/// Where the platform's node-seconds went. useful + checkpoint +
/// ckpt_aborted + lost + restore == busy (verified by tests); waste is
/// everything that was occupied but not useful.
struct PlatformResult {
  sim::Time makespan;
  double busy_node_seconds = 0.0;     ///< partition-occupied
  double useful_node_seconds = 0.0;   ///< committed application compute
  double ckpt_node_seconds = 0.0;     ///< committed checkpoint writes
  double ckpt_aborted_node_seconds = 0.0;  ///< writes killed by crashes
  double lost_node_seconds = 0.0;     ///< rolled-back compute
  double restore_node_seconds = 0.0;  ///< reading checkpoints back

  std::int64_t jobs = 0;
  std::int64_t backfilled = 0;
  std::int64_t crashes_hit = 0;  ///< crashes that landed on a busy node
  std::int64_t rollbacks = 0;
  std::int64_t ckpts_committed = 0;
  std::int64_t ckpts_aborted = 0;

  RunningStat wait_minutes;       ///< queue wait per job
  RunningStat bounded_slowdown;   ///< (wait+span)/max(bound, work)
  RunningStat ckpt_queue_wait_s;  ///< request-to-grant (cooperative)
  RunningStat frag_samples;

  io::SharedBandwidth::Stats io;

  /// Fraction of occupied node-seconds that was not useful compute.
  double waste() const {
    return busy_node_seconds == 0.0
               ? 0.0
               : 1.0 - useful_node_seconds / busy_node_seconds;
  }
  /// busy / (machine nodes * makespan).
  double utilization = 0.0;
  /// Do the node-second buckets account for busy (within tol)?
  bool balanced(double tol = 0.01) const;
};

/// Space-shared operation over any horizon (a consortium day, a
/// production month): construct, submit the trace, run, read the result.
class PlatformSimulator {
 public:
  PlatformSimulator(mesh::Mesh2D mesh, PlatformConfig cfg);

  /// Submit the whole trace (before run()).
  void submit(std::vector<PlatformJob> jobs);

  /// Run to completion of all jobs; returns the accounting.
  PlatformResult run();

  /// Set the "platform.<strategy>.*" counters in `registry` from a
  /// finished run.
  void export_counters(obs::Registry& registry) const;

 private:
  enum class Phase : std::uint8_t {
    Queued,
    Computing,
    WaitingIo,  ///< checkpoint requested, still computing (cooperative)
    Writing,
    Restoring,
    Done,
  };

  struct JobState {
    PlatformJob spec;
    PartitionId pid = -1;
    Phase phase = Phase::Queued;
    std::int32_t incarnation = 0;  ///< invalidates stale timers
    sim::Time interval;            ///< Daly checkpoint period
    sim::Time committed;           ///< durably checkpointed work
    sim::Time segment_start;       ///< current compute segment began
    sim::Time request_time;        ///< checkpoint requested (cooperative)
    sim::Time io_start;            ///< current write/restore began
    sim::Time pending;             ///< work the in-flight write covers
    sim::Time start;               ///< first dispatch
    sim::Time finish;
    io::SharedBandwidth::TransferId transfer = -1;
  };

  Bytes ckpt_bytes(const JobState& j) const {
    return j.spec.ckpt_bytes_per_node *
           static_cast<Bytes>(j.spec.nodes());
  }

  // -- scheduling --
  void schedule_pass();
  bool try_start(std::size_t idx);
  void begin_segment(std::size_t idx);

  // -- checkpoint path --
  void on_ckpt_due(std::size_t idx, std::int32_t inc);
  void grant_next();  ///< cooperative: pop the queue if the slot is free
  void begin_write(std::size_t idx);
  void on_write_done(std::size_t idx);
  void on_finish(std::size_t idx, std::int32_t inc);
  void complete(std::size_t idx);  ///< common finish path

  // -- fault path --
  void on_crash(std::int32_t node);
  void begin_restore(std::size_t idx);
  void on_restore_done(std::size_t idx);
  void remove_request(std::size_t idx);

  sim::Engine engine_;
  mesh::Mesh2D mesh_;
  PlatformConfig cfg_;
  PartitionAllocator alloc_;
  BytesPerSecond io_bw_;
  io::SharedBandwidth io_;
  std::vector<JobState> jobs_;
  std::deque<std::size_t> queue_;     ///< waiting jobs, FCFS order
  std::vector<std::size_t> pending_;  ///< checkpoint requests (coop)
  bool writer_busy_ = false;          ///< cooperative exclusive slot
  bool ran_ = false;

  PlatformResult res_;
};

}  // namespace hpccsim::sched
