/**
 * @file
 * Energy-optimal off-line replacement for small instances
 * (paper Section 3.1).
 *
 * The paper defines a replacement algorithm R to be energy-optimal
 * iff no other algorithm produces a miss sequence with lower total
 * disk energy, and notes a polynomial-time dynamic program exists
 * (relegated to their technical report). This module provides an
 * exact solver for small instances by exhaustive search with
 * memoization over (access index, cache content, per-disk last-miss
 * time) — exponential in general, but it terminates quickly for the
 * instance sizes used in tests and ablations (tens of accesses, a
 * handful of cache blocks) and gives a true lower bound to validate
 * OPG and Belady against.
 *
 * Energy model: each disk access costs a fixed service energy and
 * the idle gaps between consecutive accesses to a disk are priced by
 * the Oracle-DPM lower envelope E*(gap); the trailing gap to the
 * horizon is priced without a spin-up. This is exactly how
 * scheduleEnergy() prices an arbitrary miss schedule, so off-line
 * policies can be compared apples-to-apples.
 */

#ifndef PACACHE_CORE_OPTIMAL_HH
#define PACACHE_CORE_OPTIMAL_HH

#include <vector>

#include "cache/future.hh"
#include "cache/policy.hh"
#include "disk/power_model.hh"

namespace pacache
{

/** Pricing configuration shared by the optimal solver and
 *  scheduleEnergy(). */
struct SchedulePricing
{
    const PowerModel *pm;
    Energy serviceEnergyPerMiss = 0.05; //!< J per disk access
    Time horizon = 0; //!< end of accounting (>= last access time)
};

/**
 * Price a miss schedule: for each disk, the times of its (cache
 * miss) accesses, in non-decreasing order.
 */
Energy scheduleEnergy(const std::vector<std::vector<Time>> &miss_times,
                      const SchedulePricing &pricing);

/** Result of the exact search. */
struct OptimalResult
{
    Energy energy = 0;      //!< minimum achievable total energy
    uint64_t misses = 0;    //!< misses of the optimal schedule
    uint64_t statesVisited = 0;
};

/**
 * Exact minimum-energy replacement for an access stream and cache
 * capacity. Demand caching: every access to a non-resident block is
 * a miss and the block is brought in (evicting any one resident
 * block when full); hits cost nothing.
 *
 * Exponential worst case — intended for small instances (roughly
 * |accesses| <= 30, capacity <= 4, a few distinct blocks).
 */
OptimalResult optimalEnergy(const std::vector<BlockAccess> &accesses,
                            std::size_t capacity,
                            const SchedulePricing &pricing);

/**
 * Convenience: run a policy over the stream and price its miss
 * schedule with the same model, for comparison against
 * optimalEnergy(). An off-line @p policy must already be armed with
 * the stream's future (prepareWindowed, or NaiveOracle::prepare).
 */
Energy policyScheduleEnergy(const std::vector<BlockAccess> &accesses,
                            std::size_t capacity,
                            ReplacementPolicy &policy,
                            const SchedulePricing &pricing);

} // namespace pacache

#endif // PACACHE_CORE_OPTIMAL_HH
