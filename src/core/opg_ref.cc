#include "core/opg_ref.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pacache
{

ReferenceOpgPolicy::ReferenceOpgPolicy(const PowerModel &pm_,
                                       DpmKind kind, Energy theta_,
                                       bool ref_pricing)
    : pm(&pm_), dpmKind(kind), theta(theta_), refPricing(ref_pricing)
{
    PACACHE_ASSERT(theta >= 0, "theta must be non-negative");
}

void
ReferenceOpgPolicy::prepare(const std::vector<BlockAccess> &accs)
{
    accesses = &accs;
    future = FutureKnowledge::buildRef(accs);

    std::size_t num_disks = 1;
    Time last = 0;
    for (const auto &a : accs) {
        num_disks = std::max<std::size_t>(num_disks, a.block.disk + 1);
        last = std::max(last, a.time);
    }
    // "No leader/follower" sentinel: far enough out that every energy
    // function has reached its linear (deepest-mode) tail.
    const auto &thr = pm->thresholds();
    const Time deepest = thr.empty() ? 0.0 : thr.back();
    bigTime = last + 4 * deepest + 1000.0;

    detMiss.assign(num_disks, {});
    residentByNext.assign(num_disks, {});
    info.clear();
    evictOrder.clear();

    // S starts as the set of all cold misses (first references).
    for (std::size_t i = 0; i < accs.size(); ++i) {
        if (future.isFirstReference(i))
            detMiss[accs[i].block.disk].insert(i);
    }
}

Time
ReferenceOpgPolicy::timeOf(std::size_t idx) const
{
    return (*accesses)[idx].time;
}

Energy
ReferenceOpgPolicy::idleEnergy(Time t) const
{
    if (refPricing) {
        return dpmKind == DpmKind::Oracle ? pm->envelopeRef(t)
                                          : pm->practicalEnergyRef(t);
    }
    return dpmKind == DpmKind::Oracle ? pm->envelope(t)
                                      : pm->practicalEnergy(t);
}

Energy
ReferenceOpgPolicy::computePenalty(DiskId disk,
                                   std::size_t next_idx) const
{
    if (next_idx == FutureKnowledge::kNever)
        return 0.0; // never re-referenced: eviction costs nothing

    const auto &s = detMiss[disk];
    auto it = s.lower_bound(next_idx);
    PACACHE_ASSERT(it == s.end() || *it != next_idx,
                   "resident block's next access is a deterministic miss");

    const Time t_x = timeOf(next_idx);
    const Time l = (it == s.begin()) ? bigTime : t_x - timeOf(*std::prev(it));
    const Time f = (it == s.end()) ? bigTime : timeOf(*it) - t_x;

    const Energy penalty =
        idleEnergy(l) + idleEnergy(f) - idleEnergy(l + f);
    return std::max<Energy>(penalty, 0.0);
}

void
ReferenceOpgPolicy::insertResident(const BlockId &block,
                                   std::size_t next_idx)
{
    const Energy penalty =
        std::max(computePenalty(block.disk, next_idx), theta);
    info[block] = Info{next_idx, penalty};
    residentByNext[block.disk].emplace(next_idx, block);
    evictOrder.insert(EvictKey{penalty, next_idx, block});
}

void
ReferenceOpgPolicy::eraseResident(const BlockId &block)
{
    auto it = info.find(block);
    PACACHE_ASSERT(it != info.end(), "OPG-ref removal of unknown block");
    const Info inf = it->second;
    info.erase(it);
    evictOrder.erase(EvictKey{inf.penalty, inf.nextIdx, block});

    auto &byNext = residentByNext[block.disk];
    auto range = byNext.equal_range(inf.nextIdx);
    for (auto rit = range.first; rit != range.second; ++rit) {
        if (rit->second == block) {
            byNext.erase(rit);
            return;
        }
    }
    PACACHE_PANIC("OPG-ref residentByNext out of sync");
}

void
ReferenceOpgPolicy::repriceRange(DiskId disk, std::size_t lo,
                                 std::size_t hi)
{
    auto &byNext = residentByNext[disk];
    for (auto it = byNext.upper_bound(lo);
         it != byNext.end() && it->first < hi; ++it) {
        if (it->first == FutureKnowledge::kNever)
            break; // penalty is pinned at zero
        const BlockId &block = it->second;
        auto iit = info.find(block);
        PACACHE_ASSERT(iit != info.end(), "repriceRange missing info");
        const Energy fresh =
            std::max(computePenalty(disk, iit->second.nextIdx), theta);
        if (fresh == iit->second.penalty)
            continue;
        evictOrder.erase(
            EvictKey{iit->second.penalty, iit->second.nextIdx, block});
        iit->second.penalty = fresh;
        evictOrder.insert(EvictKey{fresh, iit->second.nextIdx, block});
    }
}

void
ReferenceOpgPolicy::detInsert(DiskId disk, std::size_t idx)
{
    auto [it, inserted] = detMiss[disk].insert(idx);
    PACACHE_ASSERT(inserted, "duplicate deterministic miss");
    const std::size_t lo = (it == detMiss[disk].begin())
        ? 0
        : *std::prev(it);
    auto nit = std::next(it);
    const std::size_t hi = (nit == detMiss[disk].end())
        ? FutureKnowledge::kNever
        : *nit;
    repriceRange(disk, lo, hi);
}

void
ReferenceOpgPolicy::detErase(DiskId disk, std::size_t idx)
{
    auto it = detMiss[disk].find(idx);
    PACACHE_ASSERT(it != detMiss[disk].end(),
                   "miss not in deterministic-miss set");
    const std::size_t lo = (it == detMiss[disk].begin())
        ? 0
        : *std::prev(it);
    auto nit = std::next(it);
    const std::size_t hi = (nit == detMiss[disk].end())
        ? FutureKnowledge::kNever
        : *nit;
    detMiss[disk].erase(it);
    repriceRange(disk, lo, hi);
}

void
ReferenceOpgPolicy::beforeMiss(const BlockId &block, Time,
                               std::size_t idx)
{
    // The access happening now is, by definition, a deterministic
    // miss; it leaves S.
    detErase(block.disk, idx);
}

void
ReferenceOpgPolicy::onAccess(const BlockId &block, Time,
                             std::size_t idx, bool hit)
{
    PACACHE_ASSERT(accesses, "OPG-ref requires prepare() before use");
    const std::size_t next = future.nextUse(idx).idx;
    if (hit) {
        auto it = info.find(block);
        PACACHE_ASSERT(it != info.end(), "OPG-ref hit on unknown block");
        PACACHE_ASSERT(it->second.nextIdx == idx,
                       "stale next-use index on hit");
        eraseResident(block);
    }
    insertResident(block, next);
}

void
ReferenceOpgPolicy::onRemove(const BlockId &block)
{
    // External removal behaves like an eviction: the block's next
    // reference becomes a deterministic miss.
    auto it = info.find(block);
    PACACHE_ASSERT(it != info.end(), "OPG-ref removal of unknown block");
    const std::size_t next = it->second.nextIdx;
    eraseResident(block);
    if (next != FutureKnowledge::kNever)
        detInsert(block.disk, next);
}

BlockId
ReferenceOpgPolicy::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!evictOrder.empty(), "OPG-ref evict on empty cache");
    const EvictKey key = *evictOrder.begin();
    const BlockId victim = key.block;
    eraseResident(victim);
    if (key.nextIdx != FutureKnowledge::kNever)
        detInsert(victim.disk, key.nextIdx);
    return victim;
}

Energy
ReferenceOpgPolicy::penaltyOf(const BlockId &block) const
{
    auto it = info.find(block);
    PACACHE_ASSERT(it != info.end(), "penaltyOf unknown block");
    return it->second.penalty;
}

std::size_t
ReferenceOpgPolicy::deterministicMissCount(DiskId disk) const
{
    return disk < detMiss.size() ? detMiss[disk].size() : 0;
}

} // namespace pacache
