// Deterministic, seeded node-crash injection for a simulated machine.
//
// Two-stage design keeps the product guarantee (byte-identical output at
// any --jobs) trivial to uphold:
//
//   1. generate_fault_trace() is a PURE function of (config, mesh): it
//      draws every node's crash/repair times from named RNG substreams
//      (util/rng.hpp) and returns the sorted event list. No engine, no
//      global state — the trace is identical on any thread.
//   2. FaultInjector::arm() schedules the trace onto the machine's
//      engine. Crashes flip proc::NodeStateTable (the runtime then
//      discards traffic to down nodes), purge the victim's mailbox, and
//      notify crash listeners (src/fault/checkpoint.hpp uses this to
//      abort the current epoch).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/task.hpp"
#include "core/time.hpp"
#include "mesh/topology.hpp"
#include "nx/machine_runtime.hpp"
#include "obs/counters.hpp"

namespace hpccsim::fault {

/// Inter-arrival distribution for node lifetimes.
enum class Distribution {
  Exponential,  ///< memoryless (classic MTBF model)
  Weibull,      ///< shape < 1: infant mortality, as real HPC logs show
};

/// Weibull shape (< 1 = decreasing hazard); the scale is derived so the
/// mean stays at the configured MTBF.
inline constexpr double kWeibullShape = 0.7;

const char* distribution_name(Distribution d);

struct FaultConfig {
  std::uint64_t seed = 1;
  /// Faults are generated in [0, horizon). Make it comfortably larger
  /// than the expected run; repairs are always generated for every
  /// crash, even past the horizon, so no node stays down forever.
  sim::Time horizon = sim::Time::sec(3600.0);

  /// Per-node mean time between failures (zero disables node crashes).
  sim::Time node_mtbf = sim::Time::zero();
  /// Mean node repair time (board swap / reboot).
  sim::Time node_repair = sim::Time::sec(120.0);

  Distribution dist = Distribution::Exponential;
};

struct FaultEvent {
  enum class Kind : std::uint8_t {
    NodeCrash = 0,
    NodeRepair = 1,
  };
  sim::Time when;
  Kind kind = Kind::NodeCrash;
  std::int32_t a = 0;  ///< node rank

  /// Trace order: by time, then kind, then node.
  friend auto operator<=>(const FaultEvent&, const FaultEvent&) = default;
};

/// Pure: the full fault schedule for (cfg, mesh), sorted by
/// (time, kind, a). Deterministic on every platform and thread.
std::vector<FaultEvent> generate_fault_trace(const FaultConfig& cfg,
                                             const mesh::Mesh2D& mesh);

class FaultInjector {
 public:
  /// Generates the trace and attaches to the machine, which then stays
  /// on its sequential engine until this injector is destroyed. Call
  /// arm() once before running the program.
  FaultInjector(nx::NxMachine& machine, const FaultConfig& cfg);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const std::vector<FaultEvent>& trace() const { return trace_; }
  /// CSV dump ("when_us,kind,a"), for determinism checks and tooling.
  std::string trace_csv() const;

  /// Replace the generated trace (tests inject hand-built schedules).
  /// Must be sorted by time; call before arm().
  void set_trace(std::vector<FaultEvent> trace);

  /// Schedule every trace event on the machine's engine. Call once.
  void arm();

  /// Stop inducing NEW crashes. Pending repairs still fire so nothing
  /// waits forever. Called by the checkpoint layer once the run
  /// completes, so leftover armed crashes past the completion time
  /// become no-ops.
  void disarm() { disarmed_ = true; }

  /// Called at each crash instant, after the node is marked down and
  /// its mailbox purged. The checkpoint layer registers its epoch-abort
  /// here.
  void add_crash_listener(std::function<void(std::int32_t rank)> fn);

  /// Awaitable: resolves once every node is up.
  sim::Task<> wait_until_all_up();

  /// Set the "fault.*" counters (crashes, repairs, purged messages,
  /// trace events) in `registry` from current totals.
  void export_counters(obs::Registry& registry) const;

  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t repairs() const { return repairs_; }
  /// Messages discarded from crashed nodes' queues (subset of the
  /// machine's messages_dropped()).
  std::uint64_t purged_messages() const { return purged_; }

 private:
  void apply(const FaultEvent& ev);

  nx::NxMachine* machine_;
  std::vector<FaultEvent> trace_;
  bool armed_ = false;
  bool disarmed_ = false;

  std::vector<std::function<void(std::int32_t)>> crash_listeners_;
  // Lazily created; fired and reset once every node is repaired.
  std::unique_ptr<sim::Trigger> all_up_trigger_;

  std::uint64_t crashes_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t purged_ = 0;
};

}  // namespace hpccsim::fault
