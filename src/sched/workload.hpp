// Seeded synthetic production workload for the shared platform.
//
// A month of machine time at a consortium site is not one LINPACK run:
// it is a queue of thousands of jobs from a handful of application
// communities, each with its own size, walltime, and — crucially for
// checkpoint interference — memory footprint per node. This module
// generates that trace as a pure function of (config, seed).
//
// Determinism: every quantity draws from its own named RNG substream
// ("platform.arrival", "platform.class", "platform.shape",
// "platform.walltime", "platform.footprint", "platform.estimate"), so
// adding a class or reordering draws in one stream never perturbs the
// others, and the trace is byte-identical across platforms and --jobs
// counts (the same pattern as src/fault and src/grid workloads).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "mesh/topology.hpp"
#include "util/units.hpp"

namespace hpccsim::sched {

/// One application community: how big its jobs run, for how long, and
/// how much state each node must checkpoint. Rectangles are drawn
/// directly (as Delta users requested them) so every job has a shape
/// that fits the empty mesh.
struct AppClass {
  std::string name;
  double weight = 1.0;  ///< mix share (normalized over all classes)
  std::int32_t min_w = 1, max_w = 1;  ///< requested rectangle columns
  std::int32_t min_h = 1, max_h = 1;  ///< requested rectangle rows
  double min_hours = 1.0, max_hours = 2.0;  ///< failure-free walltime
  Bytes min_footprint = MiB;  ///< checkpoint bytes per node (low)
  Bytes max_footprint = MiB;  ///< checkpoint bytes per node (high)
};

/// The five communities the month's trace is drawn from, shaped for the
/// 33x16 Delta: hero QCD slabs, climate production, I/O-heavy seismic
/// imaging, small chemistry sweeps, and debug jobs. Checkpoint
/// footprints range 1-32 MiB/node so the classes stress the shared CFS
/// very differently.
std::vector<AppClass> default_app_classes();

struct PlatformJob {
  std::string name;  ///< "<class><index>"
  std::int32_t app_class = 0;
  std::int32_t width = 1, height = 1;  ///< requested partition rectangle
  /// Ask for nodes() nodes in whatever rectangle
  /// PartitionAllocator::allocate_nodes finds at dispatch (near-square
  /// first: the testbed's rule) instead of width x height itself.
  bool any_shape = false;
  sim::Time work;      ///< failure-free compute time
  sim::Time estimate;  ///< user walltime estimate (>= work; backfill input)
  sim::Time submit;
  Bytes ckpt_bytes_per_node = MiB;

  std::int32_t nodes() const { return width * height; }
};

struct PlatformWorkloadConfig {
  std::uint64_t seed = 1992;
  std::int32_t jobs = 1000;  ///< trace length (exact)
  double days = 30.0;        ///< target span of the arrival process
  /// Diurnal submit shape: submissions swell around the morning rush
  /// (rate peaks at base * (1 + amplitude)).
  double rush_hour = 10.0;
  double rush_width_h = 3.0;
  double rush_amplitude = 0.8;
};

/// Pure: the full job trace for (cfg, mesh), sorted by submit time.
/// Exactly cfg.jobs entries; rectangles are clamped to the mesh so
/// every job is schedulable on an empty machine.
std::vector<PlatformJob> platform_workload(const PlatformWorkloadConfig& cfg,
                                           const mesh::Mesh2D& mesh);

/// A representative consortium day on a `machine_nodes`-node Delta-shaped
/// mesh: a mix of full-machine hero runs, mid-size production sweeps and
/// small debug jobs, one submit every ~6 minutes, all drawn from one
/// Rng(seed) stream. Every job is an any_shape node-count request with
/// the default checkpoint footprint.
std::vector<PlatformJob> consortium_workload(std::int32_t total_jobs,
                                             std::int32_t machine_nodes,
                                             std::uint64_t seed);

}  // namespace hpccsim::sched
