// Self-scheduling worker pool for independent work items.
//
// Both the experiment grid (one item per scenario repetition) and the GNP
// host phase (one item per host) run through here.  Determinism is the
// caller's contract: each item must write only its own result slot, so the
// outcome cannot depend on the thread count or the schedule.
#pragma once

#include <cstddef>
#include <functional>

namespace groupcast::util {

/// Runs fn(i) once for every i in [0, n) on min(jobs, n) worker threads
/// that draw indices from a shared atomic ticket.  Runs inline on the
/// calling thread when that is at most one worker, or when the caller is
/// itself a parallel_for worker: a nested call never starts a second pool,
/// so a grid worker that builds a world does not oversubscribe the
/// machine.  The first exception an item throws stops the remaining
/// tickets and is rethrown here once every worker has joined.
void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace groupcast::util
