// NetworkModel: the interface between the message-passing runtime and a
// concrete interconnect simulator.
//
// transfer() is called when a message's first byte leaves the source NIC;
// the model accounts for routing, serialization, and contention, mutating
// its internal link state, and returns the arrival time of the last byte
// at the destination NIC. Software (OS / library) overheads are charged
// by the runtime, not the network model.
#pragma once

#include "core/time.hpp"
#include "mesh/topology.hpp"
#include "util/units.hpp"

namespace hpccsim::mesh {

class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// Arrival time at dst of a message of `bytes` departing src at `depart`.
  virtual sim::Time transfer(NodeId src, NodeId dst, Bytes bytes,
                             sim::Time depart) = 0;

  /// Lower bound on `transfer() - depart` over all (src, dst, bytes),
  /// including self-sends. The parallel nx engine (src/nx/
  /// parallel_engine.*, docs/MODEL.md §15) relies on every delivery
  /// landing strictly after its departure; a model that cannot promise
  /// a positive floor returns zero and the engine falls back to
  /// sequential.
  virtual sim::Time min_transfer_latency() const { return sim::Time::zero(); }

  virtual std::int32_t node_count() const = 0;
};

/// Idealised full-crossbar network: fixed latency plus serialization at
/// full bandwidth, no contention. The "infinitely good interconnect"
/// baseline for ablations.
class CrossbarNet final : public NetworkModel {
 public:
  CrossbarNet(std::int32_t nodes, sim::Time latency, BytesPerSecond bw)
      : nodes_(nodes), latency_(latency), bw_(bw) {
    HPCCSIM_EXPECTS(nodes > 0);
    HPCCSIM_EXPECTS(bw.bytes_per_sec() > 0);
  }

  sim::Time transfer(NodeId src, NodeId dst, Bytes bytes,
                     sim::Time depart) override {
    HPCCSIM_EXPECTS(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_);
    const sim::Time ser =
        sim::Time::sec(static_cast<double>(bytes) / bw_.bytes_per_sec());
    return depart + latency_ + ser;
  }

  sim::Time min_transfer_latency() const override { return latency_; }

  std::int32_t node_count() const override { return nodes_; }

 private:
  std::int32_t nodes_;
  sim::Time latency_;
  BytesPerSecond bw_;
};

}  // namespace hpccsim::mesh
