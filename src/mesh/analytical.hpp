// Analytical wormhole-mesh contention model.
//
// Wormhole routing pipelines a message across its whole XY route: once the
// header reserves the path, all links on it stream the body concurrently,
// so a message occupies every route link for one serialization time. The
// model keeps a `free_at` horizon per unidirectional link:
//
//   start   = max(depart, max over route links of free_at)
//   arrival = start + hops * per_hop_latency + bytes / channel_bw
//   free_at[l] = start + bytes / channel_bw          (for each route link)
//
// This captures the first-order contention behaviour (blocking on busy
// links, serialization at channel bandwidth) at O(hops) cost per message;
// bench/ablate_contention quantifies its agreement with the flit-level
// simulator in src/mesh/flit.hpp.
#pragma once

#include <memory>
#include <vector>

#include "core/time.hpp"
#include "mesh/netmodel.hpp"
#include "mesh/topology.hpp"
#include "util/units.hpp"

namespace hpccsim::mesh {

struct AnalyticalParams {
  /// Router pipeline delay per hop (header flit latency).
  sim::Time per_hop_latency = sim::Time::ns(50);
  /// Channel bandwidth of each unidirectional mesh link.
  BytesPerSecond channel_bw = mb_per_s(25.0);
  /// Injection/ejection channel latency (node <-> router).
  sim::Time nic_latency = sim::Time::ns(100);
};

class AnalyticalMeshNet final : public NetworkModel {
 public:
  AnalyticalMeshNet(Mesh2D mesh, AnalyticalParams params);

  sim::Time transfer(NodeId src, NodeId dst, Bytes bytes,
                     sim::Time depart) override;

  /// Every transfer pays at least one injection-channel latency: a
  /// self-send arrives at depart + nic_latency + ser, and a routed
  /// message at start + 2*nic_latency + hops*per_hop + ser with
  /// start >= depart. The parallel nx engine requires a positive floor,
  /// so every delivery lands strictly after its departure; its window
  /// is the send overhead (docs/MODEL.md §15).
  sim::Time min_transfer_latency() const override {
    return params_.nic_latency;
  }

  std::int32_t node_count() const override { return mesh_.node_count(); }
  const Mesh2D& mesh() const { return mesh_; }
  const AnalyticalParams& params() const { return params_; }

  /// Total messages routed and cumulative queueing (contention) delay.
  /// The accumulator is integer picoseconds, so the mean is independent
  /// of transfer order — same-picosecond transfers replay in a
  /// different (but equivalent) order under the rank-band parallel
  /// engine, and a Welford mean would drift in the last ulp
  /// (docs/MODEL.md §15). It is 128 bits wide: long faulty runs sum
  /// more than 2^63 ps of queueing.
  std::uint64_t messages_routed() const { return messages_; }
  double contention_mean_us() const {
    return contention_count_ ? static_cast<double>(contention_ps_sum_) /
                                   static_cast<double>(contention_count_) /
                                   1e6
                             : 0.0;
  }
  double contention_max_us() const { return contention_max_.as_us(); }

  /// Drop all link state (start a fresh experiment on the same object).
  void reset();

 private:
  Mesh2D mesh_;
  AnalyticalParams params_;
  std::vector<sim::Time> link_free_at_;
  std::uint64_t messages_ = 0;
  __extension__ unsigned __int128 contention_ps_sum_ = 0;
  std::uint64_t contention_count_ = 0;
  sim::Time contention_max_;
};

}  // namespace hpccsim::mesh
