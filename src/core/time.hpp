// Simulated time.
//
// Time is an integer count of picoseconds since simulation start. Integer
// time makes the event queue total order exact (no floating-point ties or
// drift), which is what makes runs bit-reproducible. One uint64_t of
// picoseconds covers ~213 days of simulated time. The longest runs here
// (shared-platform months, 90-day fault-trace horizons) come within a
// factor of a few of that, so nothing is allowed to wrap past it:
// conversions from double reject anything that does not fit, and +, +=
// and * throw ContractError where the result would.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "util/assert.hpp"

namespace hpccsim::sim {

/// A point in (or duration of) simulated time, in integer picoseconds.
class Time {
 public:
  constexpr Time() = default;

  static constexpr Time zero() { return Time(0); }
  static constexpr Time ps(std::uint64_t v) { return Time(v); }
  static constexpr Time ns(double v) { return from(v, 1e3); }
  static constexpr Time us(double v) { return from(v, 1e6); }
  static constexpr Time ms(double v) { return from(v, 1e9); }
  static constexpr Time sec(double v) { return from(v, 1e12); }

  constexpr std::uint64_t picoseconds() const { return ps_; }
  constexpr double as_ns() const { return static_cast<double>(ps_) / 1e3; }
  constexpr double as_us() const { return static_cast<double>(ps_) / 1e6; }
  constexpr double as_ms() const { return static_cast<double>(ps_) / 1e9; }
  constexpr double as_sec() const { return static_cast<double>(ps_) / 1e12; }

  friend constexpr Time operator+(Time a, Time b) {
    std::uint64_t sum = 0;
    const bool past_2_64_ps = __builtin_add_overflow(a.ps_, b.ps_, &sum);
    HPCCSIM_EXPECTS(!past_2_64_ps);
    return Time(sum);
  }
  friend constexpr Time operator-(Time a, Time b) {
    HPCCSIM_EXPECTS(a.ps_ >= b.ps_);
    return Time(a.ps_ - b.ps_);
  }
  constexpr Time& operator+=(Time b) { return *this = *this + b; }
  friend constexpr Time operator*(Time a, std::uint64_t k) {
    std::uint64_t product = 0;
    const bool past_2_64_ps = __builtin_mul_overflow(a.ps_, k, &product);
    HPCCSIM_EXPECTS(!past_2_64_ps);
    return Time(product);
  }
  friend constexpr Time operator*(std::uint64_t k, Time a) { return a * k; }

  friend constexpr auto operator<=>(Time a, Time b) = default;

  /// Human-readable ("1.25 ms", "75 us").
  std::string str() const;

 private:
  constexpr explicit Time(std::uint64_t v) : ps_(v) {}
  static constexpr Time from(double v, double scale) {
    // Round to nearest picosecond (tiny negatives round to zero). NaN,
    // values that round below zero and values of 2^64 ps or more have no
    // uint64_t picosecond count: casting them would be undefined.
    const double ps = v * scale + 0.5;
    HPCCSIM_EXPECTS(ps >= 0.0 && ps < 0x1p64);
    return Time(static_cast<std::uint64_t>(ps));
  }
  std::uint64_t ps_ = 0;
};

}  // namespace hpccsim::sim
