// Messages exchanged between simulated node programs.
//
// A message always has a byte size (it drives the network timing model)
// and may carry a payload of doubles. In the linear-algebra "modeled"
// execution mode, payloads are null: the message sizes and schedule are
// identical, only the arithmetic is skipped.
//
// Payload is an 8-byte ref-counted handle onto one shared heap record,
// which its last holder deletes. A single pointer keeps Message at 24
// bytes (pinned in machine_runtime.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace hpccsim::nx {

/// Shared value the modeled fast path returns for "no values": a
/// namespace-level constant, so Message::values() carries no
/// function-local static-init guard.
inline const std::vector<double> kNoPayloadValues{};

/// Ref-counted, immutable message payload: null (the default, modeled
/// mode) or a shared vector of doubles (numeric mode). Reads like the
/// shared_ptr<const vector<double>> it stands in for: `if (payload)`
/// guards the dereference.
class Payload {
 public:
  Payload() = default;
  Payload(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Payload(const Payload& o) : rec_(o.rec_) {
    if (rec_) rec_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& o) noexcept : rec_(std::exchange(o.rec_, nullptr)) {}
  Payload& operator=(Payload o) noexcept {
    std::swap(rec_, o.rec_);
    return *this;
  }
  ~Payload() {
    // acq_rel: the last holder must observe every access the others
    // made to the record before deleting it.
    if (rec_ && rec_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete rec_;
  }

  explicit operator bool() const { return rec_ != nullptr; }

  // shared_ptr-style access to the values (unchecked; guard with
  // operator bool).
  const std::vector<double>& operator*() const { return rec_->values; }
  const std::vector<double>* operator->() const { return &rec_->values; }

  friend bool operator==(const Payload& p, std::nullptr_t) { return !p.rec_; }
  friend Payload make_payload(std::vector<double> v);

 private:
  /// The one record a payload's holders share. `refs` is atomic because
  /// the sharded engine (src/nx/parallel_engine.*) hands payloads across
  /// rank-band threads: a broadcast fanned out by one band may drop its
  /// last reference on another.
  struct Rec {
    explicit Rec(std::vector<double> v) : values(std::move(v)) {}
    std::atomic<std::uint32_t> refs{1};
    const std::vector<double> values;
  };
  Rec* rec_ = nullptr;
};

/// Wildcard for recv filters.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  int src = -1;
  int tag = 0;
  Bytes bytes = 0;
  Payload payload;  ///< null in modeled mode

  /// Convenience: payload values (empty if the payload is null).
  const std::vector<double>& values() const {
    return payload ? *payload : kNoPayloadValues;
  }
};

/// Build a payload from values.
inline Payload make_payload(std::vector<double> v) {
  Payload p;
  p.rec_ = new Payload::Rec(std::move(v));
  return p;
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
