#include "sched/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace hpccsim::sched {

std::vector<AppClass> default_app_classes() {
  // Weights sum to 1.0 for readability (the generator normalizes).
  return {
      // Hero runs: near-full-height slabs, long, fat checkpoints.
      {"qcd", 0.06, 16, 33, 8, 16, 4.0, 10.0, 12 * MiB, 24 * MiB},
      // Production climate sweeps: the platform's bread and butter.
      {"climate", 0.18, 8, 16, 4, 8, 2.0, 8.0, 8 * MiB, 16 * MiB},
      // Seismic imaging: mid-size but the heaviest per-node state.
      {"seismic", 0.16, 4, 12, 2, 6, 1.0, 4.0, 16 * MiB, 32 * MiB},
      // Chemistry parameter studies: many small jobs, light state.
      {"chem", 0.30, 2, 8, 2, 4, 0.5, 3.0, 2 * MiB, 8 * MiB},
      // Debug/development: tiny, short, nearly stateless.
      {"debug", 0.30, 1, 4, 1, 2, 0.1, 0.5, MiB, 2 * MiB},
  };
}

namespace {

/// Diurnal envelope factor at time-of-day `tod_s` (seconds past
/// midnight): 1 + amplitude * gaussian bump centred on the rush hour.
double envelope(double tod_s, double rush_hour, double rush_width_h,
                double amplitude) {
  const double d = (tod_s - rush_hour * 3600.0) / (rush_width_h * 3600.0);
  return 1.0 + amplitude * std::exp(-0.5 * d * d);
}

}  // namespace

std::vector<PlatformJob> platform_workload(const PlatformWorkloadConfig& cfg,
                                           const mesh::Mesh2D& mesh) {
  HPCCSIM_EXPECTS(cfg.jobs > 0);
  HPCCSIM_EXPECTS(cfg.days > 0.0);
  const std::vector<AppClass> classes = default_app_classes();
  double total_weight = 0.0;
  for (const AppClass& c : classes) {
    HPCCSIM_EXPECTS(c.weight > 0.0);
    HPCCSIM_EXPECTS(c.min_w >= 1 && c.min_w <= c.max_w);
    HPCCSIM_EXPECTS(c.min_h >= 1 && c.min_h <= c.max_h);
    HPCCSIM_EXPECTS(c.min_hours > 0.0 && c.min_hours <= c.max_hours);
    HPCCSIM_EXPECTS(c.min_footprint > 0 &&
                    c.min_footprint <= c.max_footprint);
    total_weight += c.weight;
  }

  Rng arrival = named_substream(cfg.seed, "platform.arrival");
  Rng cls = named_substream(cfg.seed, "platform.class");
  Rng shape = named_substream(cfg.seed, "platform.shape");
  Rng walltime = named_substream(cfg.seed, "platform.walltime");
  Rng footprint = named_substream(cfg.seed, "platform.footprint");
  Rng estimate = named_substream(cfg.seed, "platform.estimate");

  // Base rate chosen so the thinned process yields ~cfg.jobs arrivals
  // over cfg.days: the envelope's daily mean is 1 + amplitude *
  // width*sqrt(2*pi)/24h (the Gaussian bump's integral over one day).
  const double mean_factor =
      1.0 + cfg.rush_amplitude * cfg.rush_width_h *
                std::sqrt(2.0 * 3.14159265358979323846) / 24.0;
  const double base_rate =
      static_cast<double>(cfg.jobs) / (cfg.days * 86400.0 * mean_factor);
  const double peak_rate = base_rate * (1.0 + cfg.rush_amplitude);

  std::vector<PlatformJob> jobs;
  jobs.reserve(static_cast<std::size_t>(cfg.jobs));
  double t_s = 0.0;
  for (std::int32_t i = 0; i < cfg.jobs; ++i) {
    // Thinning: candidate arrivals at the peak rate, accepted with
    // probability envelope/peak. Generates exactly cfg.jobs arrivals
    // (the horizon is a target, not a cutoff).
    for (;;) {
      t_s += arrival.exponential(peak_rate);
      const double tod = std::fmod(t_s, 86400.0);
      const double rate =
          base_rate *
          envelope(tod, cfg.rush_hour, cfg.rush_width_h, cfg.rush_amplitude);
      if (arrival.uniform() * peak_rate <= rate) break;
    }

    // Class by normalized weight.
    double pick = cls.uniform() * total_weight;
    std::size_t ci = 0;
    for (; ci + 1 < classes.size(); ++ci) {
      if (pick < classes[ci].weight) break;
      pick -= classes[ci].weight;
    }
    const AppClass& c = classes[ci];

    PlatformJob j;
    j.app_class = static_cast<std::int32_t>(ci);
    j.name = c.name + std::to_string(i);
    j.submit = sim::Time::sec(t_s);
    // Rectangles are drawn in the class's range, then clamped to the
    // mesh (either orientation) so the request always fits when empty.
    j.width = std::min(static_cast<std::int32_t>(shape.range(c.min_w, c.max_w)),
                       mesh.width());
    j.height = std::min(
        static_cast<std::int32_t>(shape.range(c.min_h, c.max_h)),
        mesh.height());
    j.work = sim::Time::sec(walltime.uniform(c.min_hours, c.max_hours) *
                            3600.0);
    // Log-uniform across the class's footprint range: both ends of a
    // 2-32 MiB class stay represented.
    const double lo = std::log(static_cast<double>(c.min_footprint));
    const double hi = std::log(static_cast<double>(c.max_footprint));
    j.ckpt_bytes_per_node =
        static_cast<Bytes>(std::exp(footprint.uniform(lo, hi)));
    // Users overestimate walltime 1-3x (classic workload logs).
    j.estimate = sim::Time::sec(j.work.as_sec() * estimate.uniform(1.0, 3.0));
    jobs.push_back(std::move(j));
  }
  // Arrival times are already nondecreasing (a single thinned stream).
  return jobs;
}

std::vector<PlatformJob> consortium_workload(std::int32_t total_jobs,
                                             std::int32_t machine_nodes,
                                             std::uint64_t seed) {
  HPCCSIM_EXPECTS(total_jobs > 0 && machine_nodes >= 16);
  Rng rng(seed);
  std::vector<PlatformJob> jobs;
  jobs.reserve(static_cast<std::size_t>(total_jobs));
  double t_min = 0.0;  // arrivals spread over the day
  for (std::int32_t i = 0; i < total_jobs; ++i) {
    t_min += rng.exponential(1.0 / 6.0);  // one submit every ~6 minutes
    PlatformJob j;
    j.submit = sim::Time::sec(t_min * 60.0);
    j.any_shape = true;
    const double cls = rng.uniform();
    // Sizes are drawn as rectangles (as Delta users requested them), so
    // every node count has a shape that fits the empty machine. The
    // mesh aspect used for shaping is the Delta's (width ~ 2x height).
    const auto mesh_h =
        static_cast<std::int32_t>(std::sqrt(machine_nodes / 2.0));
    const std::int32_t mesh_w = machine_nodes / mesh_h;
    if (cls < 0.10) {
      // Hero run: a half-to-full-height slab, hours long.
      j.name = "hero" + std::to_string(i);
      j.width = static_cast<std::int32_t>(rng.range(mesh_w / 2, mesh_w));
      j.height = mesh_h;
      j.work = sim::Time::sec(rng.uniform(1.0, 3.0) * 3600.0);
    } else if (cls < 0.50) {
      // Production sweep: mid-size rectangle.
      j.name = "prod" + std::to_string(i);
      j.width = static_cast<std::int32_t>(rng.range(4, 16));
      j.height = static_cast<std::int32_t>(rng.range(4, std::min(8, mesh_h)));
      j.work = sim::Time::sec(rng.uniform(20.0, 120.0) * 60.0);
    } else {
      // Debug / development job.
      j.name = "debug" + std::to_string(i);
      j.width = static_cast<std::int32_t>(rng.range(1, 4));
      j.height = static_cast<std::int32_t>(rng.range(1, 4));
      j.work = sim::Time::sec(rng.uniform(1.0, 10.0) * 60.0);
    }
    // Users overestimate (classic logs: 2-3x).
    j.estimate = sim::Time::sec(j.work.as_sec() * rng.uniform(1.0, 3.0));
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace hpccsim::sched
