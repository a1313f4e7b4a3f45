#include "obs/counters.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

namespace hpccsim::obs {

namespace {

int bucket_of(std::int64_t v) {
  if (v <= 0) return 0;
  return std::bit_width(static_cast<std::uint64_t>(v));
}

}  // namespace

void Histogram::record(std::int64_t v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++buckets_[static_cast<std::size_t>(bucket_of(v))];
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double seen = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const double in_bucket = static_cast<double>(buckets_[static_cast<std::size_t>(b)]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      // Interpolate within [lo, hi) by the fraction of the bucket needed.
      const double lo = b == 0 ? 0.0 : static_cast<double>(1ULL << (b - 1));
      const double hi = static_cast<double>(1ULL << std::min(b, 62));
      const double frac = in_bucket > 0.0 ? (target - seen) / in_bucket : 0.0;
      return std::clamp(lo + frac * (hi - lo), static_cast<double>(min_),
                        static_cast<double>(max_));
    }
    seen += in_bucket;
  }
  return static_cast<double>(max_);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (int b = 0; b < kBuckets; ++b)
    buckets_[static_cast<std::size_t>(b)] +=
        other.buckets_[static_cast<std::size_t>(b)];
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), Counter{}).first;
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  return it->second;
}

void Registry::set_gauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    gauges_.emplace(std::string(name), value);
  else
    it->second = value;
}

std::int64_t Registry::value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double Registry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, c] : other.counters_)
    counter(name).add(c.value());
  for (const auto& [name, g] : other.gauges_) {
    auto it = gauges_.find(name);
    if (it == gauges_.end())
      gauges_.emplace(name, g);
    else
      it->second += g;
  }
  for (const auto& [name, h] : other.histograms_) histogram(name).merge(h);
}

std::string Registry::ascii() const {
  std::size_t width = 0;
  for (const auto& [name, c] : counters_) width = std::max(width, name.size());
  for (const auto& [name, g] : gauges_) width = std::max(width, name.size());
  for (const auto& [name, h] : histograms_)
    width = std::max(width, name.size());

  std::ostringstream os;
  char buf[160];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "%-*s %lld\n", static_cast<int>(width),
                  name.c_str(), static_cast<long long>(c.value()));
    os << buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%-*s %s\n", static_cast<int>(width),
                  name.c_str(), detail::json_double(g).c_str());
    os << buf;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(buf, sizeof(buf),
                  "%-*s count=%llu sum=%lld min=%lld p50=%.0f p95=%.0f "
                  "max=%lld\n",
                  static_cast<int>(width), name.c_str(),
                  static_cast<unsigned long long>(h.count()),
                  static_cast<long long>(h.sum()),
                  static_cast<long long>(h.min()), h.quantile(0.5),
                  h.quantile(0.95), static_cast<long long>(h.max()));
    os << buf;
  }
  return os.str();
}

std::string Registry::json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    os << '"' << detail::json_escape(name) << "\":" << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    os << '"' << detail::json_escape(name)
       << "\":" << detail::json_double(g);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << '"' << detail::json_escape(name) << "\":{\"count\":" << h.count()
       << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
       << ",\"max\":" << h.max()
       << ",\"p50\":" << detail::json_double(h.quantile(0.5))
       << ",\"p95\":" << detail::json_double(h.quantile(0.95))
       << ",\"p99\":" << detail::json_double(h.quantile(0.99)) << '}';
  }
  os << "}}";
  return os.str();
}

namespace detail {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[40];
  // %.17g always round-trips; try shorter forms first for readability.
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::stod(buf) == v) break;
  }
  // JSON has no inf/nan; clamp to null-ish sentinel (never expected from
  // simulation totals, but a malformed metrics file must not result).
  if (std::string_view(buf).find("inf") != std::string_view::npos ||
      std::string_view(buf).find("nan") != std::string_view::npos)
    return "0";
  return buf;
}

}  // namespace detail

}  // namespace hpccsim::obs
