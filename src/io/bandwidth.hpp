// Shared-bandwidth fluid model of the CFS for platform-level runs.
//
// src/io/cfs.hpp costs a single job's checkpoint chunk-by-chunk through
// the mesh and per-disk queues — exact, but far too heavy for a month of
// machine time with thousands of interfering jobs. This module is the
// platform-scale counterpart: one aggregate I/O resource whose active
// transfers share the bandwidth equally (max-min with one link is plain
// processor sharing). Concurrent checkpoints stretch each other, which
// is exactly the interference the cooperative checkpoint-ordering
// strategies in src/sched/platform.hpp exist to avoid.
//
// The aggregate rate is derived from the same disk geometry as
// Cfs::estimate_write_time (per-chunk seek folded into the streaming
// rate — see effective_cfs_bandwidth), so a lone transfer here finishes
// in the same time the closed-form CFS estimate predicts.
//
// Determinism: completion instants are pure functions of the arrival
// and cancel sequence (double arithmetic over integer-picosecond event
// times); ties complete in ascending TransferId order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/engine.hpp"
#include "core/time.hpp"
#include "io/cfs.hpp"
#include "util/units.hpp"

namespace hpccsim::io {

/// Aggregate streaming rate implied by a CFS disk layout: `disks` disks
/// at cfg.disk_bw each, derated by the per-chunk seek cost exactly as
/// Cfs::estimate_write_time charges it (one seek per stripe-sized
/// chunk). A single SharedBandwidth transfer of B bytes therefore takes
/// the same time the closed form predicts for a B-byte CFS write.
BytesPerSecond effective_cfs_bandwidth(const CfsConfig& cfg,
                                       std::int32_t disks);

/// Deterministic event-driven processor-sharing server: every active
/// transfer receives bandwidth/active() until it drains. start() may be
/// called from a completion callback (the cooperative I/O scheduler
/// grants the next checkpoint from the previous one's completion).
class SharedBandwidth {
 public:
  using TransferId = std::int64_t;

  struct Stats {
    Bytes bytes_completed = 0;
    Bytes bytes_abandoned = 0;  ///< remaining bytes of canceled transfers
    std::uint64_t completed = 0;
    std::uint64_t canceled = 0;
    sim::Time busy;  ///< integral of (active > 0) over time
    std::int32_t peak_active = 0;
  };

  SharedBandwidth(sim::Engine& engine, BytesPerSecond aggregate);

  /// Begin a transfer of `bytes`; `on_complete` runs at the drain
  /// instant (never re-entered from start itself).
  TransferId start(Bytes bytes, std::function<void()> on_complete);

  /// Abort an in-flight transfer: remaining bytes are abandoned and the
  /// completion callback is dropped. No-op on already-finished ids.
  void cancel(TransferId id);

  std::int32_t active() const {
    return static_cast<std::int32_t>(active_.size());
  }
  const Stats& stats() const { return stats_; }

 private:
  struct Transfer {
    double remaining = 0.0;  ///< bytes still to move
    Bytes total = 0;
    std::function<void()> on_complete;
  };

  /// Advance every active transfer to engine-now at the old share rate.
  void settle();
  /// Schedule the next completion wake-up (generation-guarded).
  void reschedule();
  void on_wakeup(std::uint64_t generation);

  sim::Engine* engine_;
  double rate_ = 0.0;  ///< aggregate bytes/s
  std::map<TransferId, Transfer> transfers_;
  std::vector<TransferId> active_;  ///< ascending (ids are monotonic)
  sim::Time last_settle_;
  std::uint64_t generation_ = 0;  ///< invalidates stale wake-ups
  TransferId next_id_ = 0;
  Stats stats_;
};

}  // namespace hpccsim::io
