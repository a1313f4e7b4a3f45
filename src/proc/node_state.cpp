#include "proc/node_state.hpp"

namespace hpccsim::proc {

NodeStateTable::NodeStateTable(std::int32_t nodes)
    : up_flags_(static_cast<std::size_t>(nodes), 1), up_(nodes) {
  HPCCSIM_EXPECTS(nodes > 0);
}

void NodeStateTable::set_down(std::int32_t rank) {
  if (!up(rank)) return;
  up_flags_[static_cast<std::size_t>(rank)] = 0;
  --up_;
}

void NodeStateTable::set_up(std::int32_t rank) {
  if (up(rank)) return;
  up_flags_[static_cast<std::size_t>(rank)] = 1;
  ++up_;
}

}  // namespace hpccsim::proc
