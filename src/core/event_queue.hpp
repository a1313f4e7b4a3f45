// Pending-event queue for the simulation engine and the WAN flow engine.
//
// One implicit 4-ary min-heap of 24-byte trivially-copyable records in
// one std::vector, ordered by (when, seq). Callers hand out unique
// sequence numbers, so (when, seq) is a total order and any correct
// min-heap pops events in the same order. A 4-ary heap is half as deep
// as a binary one and keeps a node's four children in 96 contiguous
// bytes; a std::push_heap/pop_heap binary heap measured slower end to
// end (docs/PERF.md, "Event queue: one 4-ary heap").
//
// The queue never inspects payloads: a record carries a uintptr_t whose
// low bits say whether it is a coroutine handle (00), a sim::Waker
// address (10) or an index into the engine's callback slot pool (x1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace hpccsim::sim::detail {

/// One pending event: 24 bytes, trivially copyable.
struct QEvent {
  std::uint64_t when;      ///< absolute time in picoseconds
  std::uint64_t seq;       ///< global schedule sequence (tie-break)
  std::uintptr_t payload;  ///< low bits 00: coroutine handle address;
                           ///< 10: Waker address | 2;
                           ///< x1: callback slot index << 1 | 1
};

inline bool event_before(const QEvent& a, const QEvent& b) {
  return a.when != b.when ? a.when < b.when : a.seq < b.seq;
}

class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void push(QEvent ev) {
    std::size_t i = heap_.size();
    heap_.push_back(ev);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!event_before(ev, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  /// Smallest (when, seq) event. Requires !empty().
  const QEvent& top() const {
    HPCCSIM_EXPECTS(!heap_.empty());
    return heap_.front();
  }

  QEvent pop() {
    HPCCSIM_EXPECTS(!heap_.empty());
    const QEvent top = heap_.front();
    const QEvent last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    // Sift the old last record down from the root into the hole.
    std::size_t i = 0;
    for (std::size_t first = 1; first < n; first = kArity * i + 1) {
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (event_before(heap_[c], heap_[best])) best = c;
      if (!event_before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
    return top;
  }

  void clear() { heap_.clear(); }

 private:
  static constexpr std::size_t kArity = 4;
  std::vector<QEvent> heap_;
};

}  // namespace hpccsim::sim::detail
