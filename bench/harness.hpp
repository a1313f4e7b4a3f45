// The plumbing every exhibit binary shares: argument errors, the
// --json/--csv options, table output, the one obs::BenchMetrics record
// and its --json write, and the thread-sweep gate of the sharded-engine
// exhibits; it also brings in the ArgParser, BenchMetrics, Registry and
// Table types exhibits use. Each exhibit keeps only its own options,
// sweep, table and "expected:" line:
//
//   int exhibit(const ArgParser& args, bench::Harness& h) {
//     ...; h.print(table); return 0;
//   }
//   int main(int argc, char** argv) {
//     bench::Harness h("fig2_scaling", "LINPACK scaling ...");
//     h.args.add_option("n", "base problem order", "4000");
//     return h.run(argc, argv, exhibit);
//   }
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace hpccsim::bench {

/// Parses argv into `args`, then runs `body`. --help prints the usage
/// and returns 0. A parse error, or a std::invalid_argument out of
/// `body` (a malformed numeric value, an out-of-range option), prints
/// its message and returns 2. Otherwise returns `body`'s exit code.
int run_cli(ArgParser& args, int argc, const char* const* argv,
            const std::function<int()>& body);

/// Integer option `name` as a count in [1, 2^31). Out of range throws
/// std::invalid_argument naming the option, so a bad count exits 2
/// instead of reaching a model precondition.
std::int32_t positive_int32(const ArgParser& args, const std::string& name);

/// One --threads entry of a thread sweep, as the sweep body reports it.
struct SweepRun {
  double wall_s = 0.0;   ///< host time of the entry's timed work
  std::string diverged;  ///< what differed from the oracle; "" if nothing
};

class Harness {
 public:
  /// Declares --json and --csv. `metrics` is built here, before any
  /// work runs, so its wall_time_s spans the whole run.
  Harness(const std::string& name, const std::string& description);

  ArgParser args;
  obs::BenchMetrics metrics;
  /// The run's merged counters, attached under "counters" unless empty.
  obs::Registry counters;

  /// run_cli() over `exhibit`, then writes --json. Returns the exit code.
  int run(int argc, const char* const* argv,
          int (*exhibit)(const ArgParser&, Harness&));

  /// Prints `t` as CSV under --csv, else as aligned text, then a newline.
  void print(const Table& t) const;

  /// Declares --threads (a comma list, default `threads`) and
  /// --require-speedup for thread_sweep().
  void add_thread_sweep_options(const std::string& threads);

  /// Runs `run(t)` at each --threads entry t. `run` checks its result
  /// against the caller's oracle and reports what diverged; a
  /// divergence prints FATAL to stderr. Records wall_t<t>_s and
  /// speedup_t<t> (against the first entry) and sets the metrics'
  /// thread count to the sweep maximum. --require-speedup X then fails
  /// the sweep unless the last entry reaches X; it is skipped when the
  /// host has fewer hardware threads than the sweep maximum. Returns the
  /// exit code: 0, or 1 on a divergence or a missed speedup.
  int thread_sweep(const std::function<SweepRun(int threads)>& run);
};

}  // namespace hpccsim::bench
