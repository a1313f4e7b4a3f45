// Observability registry: named, hierarchically-scoped counters, gauges,
// and log2-bucketed histograms.
//
// Names are dotted paths ("mesh.link.flits", "nx.collective.barrier.ns",
// "cfs.bytes_written") so dumps group naturally by subsystem. Everything
// here is simulation-deterministic: counters are integer totals of
// simulated events, histograms bucket integer samples, and iteration
// order is the sorted name order — so two runs of the same scenario
// produce byte-identical dumps, which makes counter totals strong test
// oracles (tests/obs_test.cpp pins golden values).
//
// Threading: a Registry belongs to one simulated machine and therefore
// to one engine thread (docs/MODEL.md §8). Parameter sweeps aggregate
// per-point registries after the join with merge(), in sweep-index
// order, which keeps the aggregate byte-identical at any --jobs value.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace hpccsim::obs {

/// A monotonically-growing integer total (may also be set() directly
/// when a subsystem snapshots a natively-kept count into the registry).
class Counter {
 public:
  void add(std::int64_t d = 1) { value_ += d; }
  void set(std::int64_t v) { value_ = v; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Log2-bucketed histogram of nonnegative integer samples (typically
/// latencies in nanoseconds). Bucket b holds samples in [2^(b-1), 2^b);
/// zero lands in bucket 0. Quantiles interpolate within a bucket.
class Histogram {
 public:
  void record(std::int64_t v);

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return count_ ? max_ : 0; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// Approximate quantile (q in [0,1]) via bucket interpolation.
  double quantile(double q) const;

  void merge(const Histogram& other);

 private:
  static constexpr int kBuckets = 65;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// The per-machine registry. Lookups find-or-create; references stay
/// valid for the registry's lifetime (node-based map), so hot paths can
/// resolve a handle once and increment through it.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);
  void set_gauge(std::string_view name, double value);

  /// Value of a counter, or 0 when absent (does not create).
  std::int64_t value(std::string_view name) const;
  /// Value of a gauge, or 0 when absent (does not create).
  double gauge(std::string_view name) const;
  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Fold another registry in: counters and histograms add, gauges sum.
  /// Deterministic as long as callers merge in a deterministic order.
  void merge(const Registry& other);

  /// Aligned "name  value" dump, sorted by name.
  std::string ascii() const;
  /// {"counters":{...},"gauges":{...},"histograms":{...}}, sorted keys.
  std::string json() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

namespace detail {
/// JSON string escaping shared by the trace and metrics writers.
std::string json_escape(std::string_view s);
/// Shortest round-trip formatting for doubles ("%.17g" trimmed), so
/// emitted JSON is stable across runs of the same binary.
std::string json_double(double v);
}  // namespace detail

}  // namespace hpccsim::obs
