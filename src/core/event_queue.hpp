// Two-tier pending-event queue for the simulation engine.
//
// The engine used to keep one std::priority_queue of fat Event records
// (time + seq + coroutine handle + std::function): every push/pop sifted
// 56+ bytes through the heap and the std::function member made Event
// expensive to move. This queue stores 24-byte trivially-copyable
// records and exploits the time structure of a discrete-event
// simulation: most events land close to the current time (flit hops and
// kernel charges cluster within microseconds), a minority far out
// (multi-ms compute charges, WAN transfers).
//
// Structure (a simplified ladder/calendar queue):
//   - an *active* bucket, kept as a binary min-heap — the bucket the
//     current time falls in, where same-instant wake-ups (triggers,
//     channel pushes) and short delays go;
//   - a ring of kBuckets unsorted near-future buckets of kBucketWidth
//     picoseconds each (~67 us window total), appended to in O(1) and
//     heapified only when they become active;
//   - a far-future binary min-heap for everything beyond the window.
//     When the earliest event lies there, the window jumps to it and
//     pops only the far events that now fit, earliest first, or files
//     them in one linear pass when they number more than
//     F / (4 bit_width(F)) of the F far events (see slide_to_far).
//
// Ordering is exactly (time, sequence) — identical to the old
// priority_queue tie-break — because buckets partition time and both
// heaps compare (when, seq). Determinism is therefore bit-identical.
//
// The queue never inspects payloads: a record carries a uintptr_t whose
// low bits say whether it is a coroutine handle (00), a sim::Waker
// address (10) or an index into the engine's callback slot pool (x1).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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

/// Comparator that makes std::*_heap a min-heap on (when, seq).
struct EventAfter {
  bool operator()(const QEvent& a, const QEvent& b) const {
    return event_before(b, a);
  }
};

/// The queue discipline, parameterized on bucket width so other
/// event-driven subsystems with a different natural time scale can
/// reuse it: the engine instantiates the default 2^16 ps (~65.5 ns)
/// buckets; the WAN flow engine (src/wan/flow_engine.hpp), whose
/// completion events are milliseconds-to-hours apart, instantiates
/// 2^36 ps (~69 ms) buckets so completions still land in the O(1)
/// ring, not the O(log F) far heap.
template <unsigned BucketBits = 16>
class BasicEventQueue {
 public:
  /// Near-window geometry: 1024 buckets of 2^BucketBits ps each. At the
  /// default 16 bits that covers a ~67 us window — wide enough that NX
  /// software overheads (tens of us) and flit cycles land in the ring,
  /// not the far heap.
  static constexpr std::uint64_t kBucketBits = BucketBits;
  static constexpr std::uint64_t kBucketWidth = std::uint64_t{1} << kBucketBits;
  static constexpr std::size_t kBuckets = 1024;
  static constexpr std::size_t kSlotMask = kBuckets - 1;

  /// Events a ring bucket can hold before its vector reallocates.
  /// Buckets recycle capacity via swap with the drained active heap, but
  /// a cold slot (or one whose load phase-shifted past its high-water
  /// mark) would otherwise grow on the hot path; 8 events per ~65 ns
  /// bucket covers the simulated machines' densest bursts, and the
  /// reserve is ~190 KiB per queue.
  static constexpr std::size_t kBucketReserve = 8;

  BasicEventQueue() : ring_(kBuckets) {
    occupied_.fill(0);
    active_.reserve(kBucketReserve);
    for (auto& b : ring_) b.reserve(kBucketReserve);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(QEvent ev) {
    const std::uint64_t b = ev.when >> kBucketBits;
    if (b <= active_bucket_) {
      // Same-instant wake-ups and the tail of the active bucket. The
      // active heap may briefly hold events from an earlier bucket than
      // active_bucket_ (run_until can leave `now` behind the bucket the
      // queue advanced to); the heap orders them exactly regardless.
      active_.push_back(ev);
      if (active_.size() > 1)
        std::push_heap(active_.begin(), active_.end(), EventAfter{});
    } else if (b - active_bucket_ < kBuckets) {
      const std::size_t slot = static_cast<std::size_t>(b) & kSlotMask;
      ring_[slot].push_back(ev);
      occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    } else {
      far_.push_back(ev);
      std::push_heap(far_.begin(), far_.end(), EventAfter{});
    }
    ++size_;
  }

  /// Smallest (when, seq) event. Requires !empty(); may reorganize
  /// buckets internally but never changes the logical contents.
  const QEvent& top() {
    HPCCSIM_EXPECTS(size_ > 0);
    if (active_.empty()) advance();
    return active_.front();
  }

  QEvent pop() {
    HPCCSIM_EXPECTS(size_ > 0);
    if (active_.empty()) advance();
    // Size-1 fast path: sparse buckets (one event per ~65 ns) are the
    // common case in the simulated machines, and pop_heap on a single
    // element still costs two element moves.
    if (active_.size() > 1)
      std::pop_heap(active_.begin(), active_.end(), EventAfter{});
    const QEvent ev = active_.back();
    active_.pop_back();
    --size_;
    return ev;
  }

  void clear() {
    active_.clear();
    far_.clear();
    for (auto& b : ring_) b.clear();
    occupied_.fill(0);
    size_ = 0;
  }

 private:
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  // The active bucket drained; make the bucket holding the next event
  // active. That is whichever comes first of (a) the next non-empty ring
  // bucket and (b) the earliest far-heap bucket. (b) can precede (a):
  // far events are filed relative to the window *at push time*, and as
  // the window slides forward a far bucket may fall inside it without
  // being touched — so the far minimum must be checked on every advance,
  // not only when the ring drains.
  void advance() {
    // Scan the occupancy bitmap from the slot after the active bucket,
    // wrapping once around the ring; first hit = smallest ring bucket.
    std::uint64_t ring_bucket = kNoBucket;
    std::size_t ring_slot = 0;
    const std::size_t start = (static_cast<std::size_t>(active_bucket_) + 1) &
                              kSlotMask;
    for (std::size_t probed = 0; probed < kBuckets;) {
      const std::size_t slot = (start + probed) & kSlotMask;
      const std::uint64_t bits = occupied_[slot >> 6] >> (slot & 63);
      if (bits == 0) {
        probed += 64 - (slot & 63);  // rest of this word is empty
        continue;
      }
      const auto adv = static_cast<std::size_t>(std::countr_zero(bits));
      if (probed + adv < kBuckets) {
        ring_bucket = active_bucket_ + 1 + probed + adv;
        ring_slot = slot + adv;  // same word, so no wrap
      }
      break;
    }
    const std::uint64_t far_bucket =
        far_.empty() ? kNoBucket : far_.front().when >> kBucketBits;
    if (ring_bucket < far_bucket) {
      active_bucket_ = ring_bucket;
      HPCCSIM_ASSERT((static_cast<std::size_t>(active_bucket_) & kSlotMask) ==
                     ring_slot);
      active_.swap(ring_[ring_slot]);  // recycles both vectors' capacity
      clear_bit(ring_slot);
      std::make_heap(active_.begin(), active_.end(), EventAfter{});
      return;
    }
    slide_to_far(far_bucket);
  }

  // The earliest pending event lives in the far heap: jump the window to
  // its bucket and file every far event that now fits into the active
  // heap or its ring slot. Existing ring buckets all fit the new window
  // too (they lie in (far_bucket, old_active + kBuckets) ⊆ [far_bucket,
  // far_bucket + kBuckets)), so slots never collide across different
  // buckets.
  //
  // Cost: a bounded walk of the far heap first counts the k of F far
  // events that enter the window, stopping past the pop budget
  // B = ceil(F / (4 bit_width(F))). If k <= B they are popped earliest
  // first, O(k log F), so a sparse stretch (one event per window) costs
  // one pop, not a pass over the whole far heap. Otherwise one linear
  // pass files them and re-heapifies the rest, O(F): a deep queue whose
  // slide moves a large share of F pays the linear cost plus an O(B)
  // walk, never the pops. The budget follows F alone; there is no
  // setting.
  void slide_to_far(std::uint64_t far_bucket) {
    HPCCSIM_ASSERT(far_bucket != kNoBucket);
    active_bucket_ = far_bucket;
    const auto aslot = static_cast<std::size_t>(far_bucket) & kSlotMask;
    if (occupied_[aslot >> 6] & (std::uint64_t{1} << (aslot & 63))) {
      // The ring already holds events of this same bucket (pushed after
      // it slid inside the window): merge them into the active heap.
      active_.swap(ring_[aslot]);
      clear_bit(aslot);
    }
    const std::uint64_t window_end = far_bucket + kBuckets;
    const std::size_t f = far_.size();
    const auto per_pop = 4 * static_cast<std::size_t>(std::bit_width(f));
    const std::size_t budget = (f + per_pop - 1) / per_pop;
    if (count_far_below(0, window_end, budget + 1) > budget) {
      file_fitting_far(window_end);
    } else {
      while (!far_.empty() &&
             (far_.front().when >> kBucketBits) < window_end) {
        std::pop_heap(far_.begin(), far_.end(), EventAfter{});
        file_in_window(far_.back());
        far_.pop_back();
      }
    }
    std::make_heap(active_.begin(), active_.end(), EventAfter{});
    HPCCSIM_ASSERT(!active_.empty());
  }

  // Far events below window_end in the heap subtree rooted at index i,
  // counted up to `limit`. Heap order confines the walk to those events
  // and their children: O(min(k, limit)) however deep the far heap.
  std::size_t count_far_below(std::size_t i, std::uint64_t window_end,
                              std::size_t limit) const {
    if (limit == 0 || i >= far_.size() ||
        (far_[i].when >> kBucketBits) >= window_end)
      return 0;
    std::size_t n = 1;
    n += count_far_below(2 * i + 1, window_end, limit - n);
    n += count_far_below(2 * i + 2, window_end, limit - n);
    return n;
  }

  // The linear pass: file every far event below window_end, keep the
  // rest and rebuild the far heap over them.
  void file_fitting_far(std::uint64_t window_end) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
      const QEvent ev = far_[i];
      if ((ev.when >> kBucketBits) < window_end)
        file_in_window(ev);
      else
        far_[kept++] = ev;
    }
    far_.resize(kept);
    std::make_heap(far_.begin(), far_.end(), EventAfter{});
  }

  // Files an event of a bucket in [active_bucket_, window end) into the
  // active heap's storage (heapified by the caller) or its ring slot.
  void file_in_window(const QEvent& ev) {
    const std::uint64_t b = ev.when >> kBucketBits;
    if (b == active_bucket_) {
      active_.push_back(ev);
    } else {
      const std::size_t slot = static_cast<std::size_t>(b) & kSlotMask;
      ring_[slot].push_back(ev);
      occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
  }

  void clear_bit(std::size_t slot) {
    occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }

  std::vector<QEvent> active_;             // min-heap: the current bucket
  std::vector<std::vector<QEvent>> ring_;  // unsorted near-future buckets
  std::array<std::uint64_t, kBuckets / 64> occupied_;
  std::vector<QEvent> far_;                // min-heap: beyond the window
  std::uint64_t active_bucket_ = 0;        // absolute index (when >> bits)
  std::size_t size_ = 0;
};

/// The engine's instantiation: ~65.5 ns buckets (see class comment).
using EventQueue = BasicEventQueue<>;

}  // namespace hpccsim::sim::detail
