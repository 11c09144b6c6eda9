#include "core/optimal.hh"

#include <algorithm>
#include <limits>

#include "cache/cache.hh"
#include "util/logging.hh"

namespace pacache
{

namespace
{

/** Price the trailing (never re-activated) gap of one disk. */
Energy
openGapEnergy(const PowerModel &pm, Time gap)
{
    Energy best = pm.mode(0).idlePower * gap;
    for (std::size_t i = 1; i < pm.numModes(); ++i) {
        best = std::min(best, pm.mode(i).idlePower * gap +
                                  pm.mode(i).spinDownEnergy);
    }
    return best;
}

} // namespace

Energy
scheduleEnergy(const std::vector<std::vector<Time>> &miss_times,
               const SchedulePricing &pricing)
{
    const PowerModel &pm = *pricing.pm;
    Energy total = 0;
    for (const auto &times : miss_times) {
        PACACHE_ASSERT(std::is_sorted(times.begin(), times.end()),
                       "miss times must be sorted");
        Time last = 0;
        for (Time t : times) {
            PACACHE_ASSERT(t <= pricing.horizon,
                           "miss beyond the pricing horizon");
            total += pricing.serviceEnergyPerMiss;
            total += pm.envelope(t - last);
            last = t;
        }
        total += openGapEnergy(pm, pricing.horizon - last);
    }
    return total;
}

namespace
{

/** Exhaustive minimum-energy search with exchange-argument pruning. */
class OptimalSolver
{
  public:
    OptimalSolver(const std::vector<BlockAccess> &accs,
                  std::size_t capacity, const SchedulePricing &pricing)
        : accesses(accs), cap(capacity), cfg(pricing),
          future(FutureKnowledge::build(accs))
    {
        std::size_t num_disks = 1;
        for (const auto &a : accs) {
            num_disks =
                std::max<std::size_t>(num_disks, a.block.disk + 1);
        }
        lastMiss.assign(num_disks, 0.0);
    }

    OptimalResult
    solve()
    {
        best = std::numeric_limits<Energy>::infinity();
        dfs(0, 0.0, 0);
        OptimalResult r;
        r.energy = best;
        r.misses = bestMisses;
        r.statesVisited = states;
        return r;
    }

  private:
    struct Resident
    {
        BlockId block;
        std::size_t nextUse;
    };

    Energy
    trailing() const
    {
        Energy e = 0;
        for (Time last : lastMiss)
            e += openGapEnergy(*cfg.pm, cfg.horizon - last);
        return e;
    }

    void
    dfs(std::size_t idx, Energy cost, uint64_t misses)
    {
        ++states;
        if (cost >= best)
            return; // inner-gap costs only grow
        if (idx == accesses.size()) {
            const Energy total = cost + trailing();
            if (total < best) {
                best = total;
                bestMisses = misses;
            }
            return;
        }

        const BlockAccess &acc = accesses[idx];
        auto it = std::find_if(resident.begin(), resident.end(),
                               [&](const Resident &r) {
                                   return r.block == acc.block;
                               });
        if (it != resident.end()) {
            // Hit: refresh the stored next use and move on. Deeper
            // calls may push_back/pop_back (reallocating), so restore
            // through the index, which stays valid.
            const std::size_t pos =
                static_cast<std::size_t>(it - resident.begin());
            const std::size_t saved = resident[pos].nextUse;
            resident[pos].nextUse = future.nextUse(idx).idx;
            dfs(idx + 1, cost, misses);
            resident[pos].nextUse = saved;
            return;
        }

        // Miss: pay the inner gap and the service energy.
        const DiskId d = acc.block.disk;
        const Time prev = lastMiss[d];
        const Energy gap_cost = cfg.pm->envelope(acc.time - prev);
        const Energy new_cost =
            cost + cfg.serviceEnergyPerMiss + gap_cost;
        lastMiss[d] = acc.time;

        if (resident.size() < cap) {
            resident.push_back({acc.block, future.nextUse(idx).idx});
            dfs(idx + 1, new_cost, misses + 1);
            resident.pop_back();
        } else {
            // Exchange argument (valid under the subadditive Oracle
            // envelope): if some resident block is never used again,
            // evicting it is weakly optimal — no need to branch.
            auto dead = std::find_if(
                resident.begin(), resident.end(), [](const Resident &r) {
                    return r.nextUse == FutureKnowledge::kNever;
                });
            if (dead != resident.end()) {
                const Resident saved = *dead;
                *dead = {acc.block, future.nextUse(idx).idx};
                dfs(idx + 1, new_cost, misses + 1);
                *dead = saved;
            } else {
                for (std::size_t v = 0; v < resident.size(); ++v) {
                    const Resident saved = resident[v];
                    resident[v] = {acc.block, future.nextUse(idx).idx};
                    dfs(idx + 1, new_cost, misses + 1);
                    resident[v] = saved;
                }
            }
        }
        lastMiss[d] = prev;
    }

    const std::vector<BlockAccess> &accesses;
    std::size_t cap;
    SchedulePricing cfg;
    FutureKnowledge future;

    std::vector<Resident> resident;
    std::vector<Time> lastMiss;
    Energy best = 0;
    uint64_t bestMisses = 0;
    uint64_t states = 0;
};

} // namespace

OptimalResult
optimalEnergy(const std::vector<BlockAccess> &accesses,
              std::size_t capacity, const SchedulePricing &pricing)
{
    PACACHE_ASSERT(pricing.pm, "pricing needs a power model");
    PACACHE_ASSERT(capacity > 0, "capacity must be positive");
    PACACHE_ASSERT(accesses.empty() ||
                       pricing.horizon >= accesses.back().time,
                   "horizon must cover the stream");
    OptimalSolver solver(accesses, capacity, pricing);
    return solver.solve();
}

Energy
policyScheduleEnergy(const std::vector<BlockAccess> &accesses,
                     std::size_t capacity, ReplacementPolicy &policy,
                     const SchedulePricing &pricing)
{
    std::size_t num_disks = 1;
    for (const auto &a : accesses)
        num_disks = std::max<std::size_t>(num_disks, a.block.disk + 1);

    Cache cache(capacity, policy);
    policy.prepare(accesses);
    std::vector<std::vector<Time>> miss_times(num_disks);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        if (!cache.access(accesses[i].block, accesses[i].time, i).hit)
            miss_times[accesses[i].block.disk].push_back(
                accesses[i].time);
    }
    return scheduleEnergy(miss_times, pricing);
}

} // namespace pacache
