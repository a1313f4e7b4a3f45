// Rank-band sharded execution of one NxMachine run.
//
// The machine's ranks are partitioned into contiguous bands, each driven
// by a private sequential Engine on its own host thread. Bands advance
// in lock-step conservative-lookahead windows of width send_overhead:
// every send is captured when posted and departs at least that much
// later, so within a window no band can affect another and bands run
// their windows concurrently; between windows the coordinator replays
// the captured sends serially against the shared NetworkModel in
// departure order. The contract is byte
// identity with the sequential engine at any thread count — see
// docs/MODEL.md §15 for the correctness argument.
#pragma once

#include "nx/machine_runtime.hpp"

namespace hpccsim::nx::par {

/// Runs one sharded machine run to completion on `threads` host threads
/// (band 0 runs on the calling thread; workers come from a persistent
/// process-wide pool), spawning `program` on every rank. Call only when
/// machine.parallel_eligible(); throws exactly what the sequential run
/// would (process errors, DeadlockError with the sequential message).
/// Returns the totals NxMachine folds into its counters.
ParRunTotals run_sharded(NxMachine& machine, int threads,
                         const NxMachine::Program& program);

}  // namespace hpccsim::nx::par
