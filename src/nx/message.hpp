// Messages exchanged between simulated node programs.
//
// A message always has a byte size (it drives the network timing model)
// and may carry a payload of doubles. In the linear-algebra "modeled"
// execution mode, payloads carry no values: the message sizes and
// schedule are identical, only the arithmetic is skipped.
//
// Payload is an 8-byte ref-counted handle onto a pooled record
// (src/nx/payload.cpp): a broadcast fans one buffer out without copies
// (like the shared_ptr it replaced), and releasing the last reference
// returns the record to a thread-local free list instead of the heap.
// Size-only payloads — the modeled-mode hot path — therefore touch
// malloc zero times after warmup; value-carrying payloads still own a
// real std::vector<double> (numeric mode is unchanged).
//
// The handle is a single pointer on purpose: Message stays 24 bytes, so
// the per-delivery engine callback capture in NxContext::launch_message
// keeps fitting the 48-byte inline buffer (no allocation per message).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace hpccsim::nx {

namespace detail {

/// Pooled backing store of one payload. `refs` is atomic because the
/// parallel engine (src/nx/parallel_engine.*) hands payloads across
/// rank-band threads: a broadcast fanned out by one band may drop its
/// last reference on another. Uncontended increments stay a single
/// lock-prefixed add — the sequential hot path is unchanged.
struct PayloadRec {
  std::atomic<std::uint32_t> refs{0};
  bool has_values = false;
  std::size_t count = 0;        ///< element count of a size-only payload
  std::vector<double> values;   ///< empty (capacity recycled) when size-only
  void* owner = nullptr;        ///< pool that allocated this record
  PayloadRec* next_free = nullptr;  ///< link in the owner-return stack
};

/// Thread-local free-list acquire/release (src/nx/payload.cpp). A
/// record released on a foreign thread is pushed onto its owning
/// pool's lock-free return stack and recycled by the owner, so every
/// record is only ever *reused* by the thread that allocated it.
PayloadRec* payload_acquire(bool sized);
void payload_release(PayloadRec* rec);

/// Band-command boundary on the calling thread; the sharded engine
/// calls it at the start of every band command, `command` counting the
/// run's dispatches, and once more on the coordinating thread after
/// Finish. Folds into the free list the records other threads returned
/// during the previous command, and files this thread's foreign
/// releases under `command` until the next boundary. Nothing else folds
/// returns, so which acquires allocate depends only on the simulated
/// schedule, not on thread timing.
void payload_command_boundary(std::uint64_t command);

/// Pool telemetry. `acquires`/`sized_acquires` count payload
/// constructions and are simulation-deterministic; `heap_allocs` and
/// `peak_live` depend on the thread's allocation history (free-list
/// warmth) and must not be exported into deterministic registries.
struct PayloadPoolStats {
  std::uint64_t acquires = 0;        ///< value-carrying payloads built
  std::uint64_t sized_acquires = 0;  ///< size-only payloads built
  std::uint64_t heap_allocs = 0;     ///< free-list misses (new record)
  std::uint64_t live = 0;            ///< records currently checked out
};
const PayloadPoolStats& payload_pool_stats();

}  // namespace detail

/// Shared value the modeled fast path returns for "no values": a
/// namespace-level constant, so Message::values() carries no
/// function-local static-init guard.
inline const std::vector<double> kNoPayloadValues{};

/// Ref-counted message payload. Three states:
///   - null (default): no payload at all;
///   - sized: an element count only (modeled mode) — pooled, alloc-free;
///   - values: a real vector of doubles (numeric mode).
/// The boolean conversion and nullptr comparison test for *values*,
/// matching the previous shared_ptr semantics, so `if (payload)` guards
/// around dereferences keep working and sized payloads take the
/// modeled-mode branch everywhere.
class Payload {
 public:
  Payload() = default;
  Payload(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Payload(const Payload& o) : rec_(o.rec_) {
    if (rec_) rec_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& o) noexcept : rec_(o.rec_) { o.rec_ = nullptr; }
  Payload& operator=(const Payload& o) {
    Payload tmp(o);
    std::swap(rec_, tmp.rec_);
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    std::swap(rec_, o.rec_);
    return *this;
  }
  ~Payload() { reset(); }

  void reset() {
    // acq_rel: the last release must observe every write the other
    // refs made to the record before recycling it.
    if (rec_ && rec_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      detail::payload_release(rec_);
    rec_ = nullptr;
  }

  /// A payload carrying real values.
  static Payload values(std::vector<double> v) {
    Payload p;
    p.rec_ = detail::payload_acquire(/*sized=*/false);
    p.rec_->has_values = true;
    p.rec_->values = std::move(v);
    return p;
  }

  /// A size-only payload of `elements` doubles (modeled mode): records
  /// the shape without touching the heap after warmup.
  static Payload sized(std::size_t elements) {
    Payload p;
    p.rec_ = detail::payload_acquire(/*sized=*/true);
    p.rec_->count = elements;
    return p;
  }

  /// True when the payload carries values (sized payloads are falsy, so
  /// existing modeled-mode guards skip the arithmetic).
  explicit operator bool() const { return rec_ && rec_->has_values; }
  bool has_values() const { return rec_ && rec_->has_values; }
  bool is_sized() const { return rec_ && !rec_->has_values; }

  /// Element count: values size, or the recorded count when size-only.
  std::size_t elements() const {
    if (!rec_) return 0;
    return rec_->has_values ? rec_->values.size() : rec_->count;
  }

  // shared_ptr-style access to the values (unchecked; guard with
  // has_values() / operator bool like the old null check).
  const std::vector<double>& operator*() const { return rec_->values; }
  const std::vector<double>* operator->() const { return &rec_->values; }

  friend bool operator==(const Payload& p, std::nullptr_t) {
    return !p.has_values();
  }
  friend bool operator==(std::nullptr_t, const Payload& p) {
    return !p.has_values();
  }

 private:
  detail::PayloadRec* rec_ = nullptr;
};

/// Wildcard for recv filters.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  int src = -1;
  int tag = 0;
  Bytes bytes = 0;
  Payload payload;  ///< may be null or size-only (shape-only message)

  /// Convenience: payload values (empty if shape-only).
  const std::vector<double>& values() const {
    return payload.has_values() ? *payload : kNoPayloadValues;
  }
};

/// Build a payload from values.
inline Payload make_payload(std::vector<double> v) {
  return Payload::values(std::move(v));
}

/// Build a payload from scalars: payload_of(1.0, 2.0).
///
/// Prefer this over make_payload({...}) inside coroutines: a braced
/// initializer list used in a co_await'ed full expression creates a
/// temporary array that GCC 12 cannot place in the coroutine frame
/// ("array used as initializer"); scalar arguments sidestep it.
template <class... Ts>
Payload payload_of(Ts... vals) {
  return make_payload(std::vector<double>{static_cast<double>(vals)...});
}

/// Size in bytes of a payload of n doubles.
inline constexpr Bytes doubles_bytes(std::size_t n) { return n * 8; }

}  // namespace hpccsim::nx
