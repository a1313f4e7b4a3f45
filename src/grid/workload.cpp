#include "grid/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace hpccsim::grid {
namespace {

constexpr double kDayS = 86400.0;

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& cfg,
                                     const Federation& fed)
    : fed_(&fed),
      horizon_s_(cfg.days * kDayS),
      base_rate_(cfg.requests_per_day / kDayS),
      rush_hour_s_(cfg.rush_hour * 3600.0),
      rush_width_s_(cfg.rush_width_h * 3600.0),
      amplitude_(cfg.rush_amplitude),
      arrival_(named_substream(cfg.seed, "grid.arrival")),
      site_(named_substream(cfg.seed, "grid.site")),
      dataset_(named_substream(cfg.seed, "grid.dataset")) {
  HPCCSIM_EXPECTS(cfg.days > 0.0);
  HPCCSIM_EXPECTS(cfg.requests_per_day > 0.0);
  HPCCSIM_EXPECTS(cfg.rush_amplitude >= 0.0);
  HPCCSIM_EXPECTS(cfg.rush_width_h > 0.0);
  HPCCSIM_EXPECTS(cfg.dataset_count > 0);
  HPCCSIM_EXPECTS(cfg.median_bytes >= 1.0);
  peak_rate_ = base_rate_ * (1.0 + amplitude_);

  // Dataset sizes (log-normal around the median, clamped to [4 KiB,
  // 1 TiB]) and initial archive placement, from their own substreams.
  Rng size_rng = named_substream(cfg.seed, "grid.size");
  Rng place_rng = named_substream(cfg.seed, "grid.place");
  sizes_.reserve(static_cast<std::size_t>(cfg.dataset_count));
  regions_of_.reserve(static_cast<std::size_t>(cfg.dataset_count));
  for (std::int32_t d = 0; d < cfg.dataset_count; ++d) {
    const double b =
        cfg.median_bytes * std::exp(cfg.sigma_log * size_rng.normal());
    const double clamped = std::clamp(b, 4096.0, 0x1p40);  // 4 KiB..1 TiB
    sizes_.push_back(static_cast<Bytes>(clamped));
    regions_of_.push_back(static_cast<std::int32_t>(
        place_rng.below(static_cast<std::uint64_t>(fed.regions()))));
  }

  // Zipf popularity CDF: weight(k) = (k+1)^-s.
  dataset_cdf_.resize(sizes_.size());
  double acc = 0.0;
  for (std::size_t k = 0; k < sizes_.size(); ++k) {
    acc += std::pow(static_cast<double>(k + 1), -cfg.zipf_s);
    dataset_cdf_[k] = acc;
  }
  for (double& c : dataset_cdf_) c /= acc;

  // Destination CDF over leaves, weighted by access bandwidth.
  leaf_cdf_.resize(fed.leaves().size());
  acc = 0.0;
  for (std::size_t i = 0; i < fed.leaves().size(); ++i) {
    acc += fed.leaves()[i].access_bps;
    leaf_cdf_[i] = acc;
  }
  for (double& c : leaf_cdf_) c /= acc;
}

double WorkloadGenerator::rate_at(double t_s) const {
  // Distance from the rush hour, wrapped to the nearest day.
  double d = std::fmod(t_s - rush_hour_s_, kDayS);
  if (d < -kDayS / 2) d += kDayS;
  if (d > kDayS / 2) d -= kDayS;
  const double bump =
      std::exp(-(d * d) / (2.0 * rush_width_s_ * rush_width_s_));
  return base_rate_ * (1.0 + amplitude_ * bump);
}

std::optional<Request> WorkloadGenerator::next() {
  // Nonhomogeneous Poisson by thinning: candidate arrivals at the peak
  // rate, accepted with probability rate(t)/peak. rate_at(t) is
  // base * (1 + amplitude * bump) with amplitude * bump >= 0, so it is
  // never below base_rate_ in floating point either: a draw at or under
  // the base rate is accepted without evaluating the diurnal shape.
  for (;;) {
    t_s_ += arrival_.exponential(peak_rate_);
    if (t_s_ >= horizon_s_) return std::nullopt;
    const double u = arrival_.uniform() * peak_rate_;
    if (u <= base_rate_ || u <= rate_at(t_s_)) break;
  }
  Request q;
  q.at = sim::Time::sec(t_s_);
  const auto li = static_cast<std::size_t>(
      std::lower_bound(leaf_cdf_.begin(), leaf_cdf_.end(),
                       site_.uniform()) -
      leaf_cdf_.begin());
  q.dst = fed_->leaves()[std::min(li, leaf_cdf_.size() - 1)].site;
  const auto di = static_cast<std::size_t>(
      std::lower_bound(dataset_cdf_.begin(), dataset_cdf_.end(),
                       dataset_.uniform()) -
      dataset_cdf_.begin());
  q.dataset =
      static_cast<DatasetId>(std::min(di, dataset_cdf_.size() - 1));
  return q;
}

}  // namespace hpccsim::grid
