/**
 * @file
 * The one parallel loop behind sweeps, sharded replay and fuzz
 * campaigns: run fn(i) for every index of a batch on a few threads.
 *
 * parallelFor makes no determinism promises itself: callers that need
 * reproducible output (runAll, runShardedExperiment, runCampaign)
 * write each index's result into a pre-assigned slot and aggregate
 * the slots in index order after it returns.
 */

#ifndef PACACHE_RUNNER_THREAD_POOL_HH
#define PACACHE_RUNNER_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace pacache::runner
{

/** hardware_concurrency, or 1 when the runtime reports 0. */
unsigned defaultWorkers();

/**
 * Call @p fn(i) once for every i in [0, n) and return when all calls
 * have finished. min(@p jobs, n) spawned threads (at least one; the
 * caller only waits) claim indices in increasing order from one
 * shared counter, so with one thread the calls run in index order.
 * If any call threw, every index still runs, and the exception of
 * the lowest failing index is rethrown here, on the caller's thread.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace pacache::runner

#endif // PACACHE_RUNNER_THREAD_POOL_HH
