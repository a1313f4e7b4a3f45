// Runtime health of a machine's nodes.
//
// The paper-era machines were perfectly reliable only on slides: the
// Delta's long campaigns lost nodes mid-run. This table is the single
// source of truth for which simulated nodes are currently up; the fault
// injector (src/fault) flips entries and the NX runtime consults them
// when delivering messages.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace hpccsim::proc {

class NodeStateTable {
 public:
  explicit NodeStateTable(std::int32_t nodes);

  std::int32_t node_count() const {
    return static_cast<std::int32_t>(up_flags_.size());
  }
  std::int32_t up_count() const { return up_; }

  bool up(std::int32_t rank) const {
    HPCCSIM_EXPECTS(rank >= 0 && rank < node_count());
    return up_flags_[static_cast<std::size_t>(rank)] != 0;
  }

  /// Mark a node crashed. No-op if already down.
  void set_down(std::int32_t rank);

  /// Mark a node repaired. No-op if already up.
  void set_up(std::int32_t rank);

 private:
  std::vector<std::uint8_t> up_flags_;
  std::int32_t up_ = 0;
};

}  // namespace hpccsim::proc
