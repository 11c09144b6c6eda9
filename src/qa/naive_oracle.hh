/**
 * @file
 * NaiveOracle — OPG (paper Section 3.2) and Belady's MIN written
 * straight from their definitions, the reference the fast oracles
 * (core/opg.hh, cache/belady.hh) are checked against; tests, fuzz
 * properties and micro_opg use it, no product path does. It shares no
 * structure with them: next uses come from a std::map backward pass,
 * each disk's deterministic misses S from a std::set (the cold misses
 * at first; a serviced miss leaves, an evicted block's next access
 * joins), and every eviction rescans all residents. OPG prices each
 * as max(max(E(l) + E(f) - E(l+f), 0), theta) with E the legacy scan
 * envelopeRef or practicalEnergyRef, l and f its next access's
 * distance from its leader and follower in S (bigTime when missing),
 * and evicts the lowest penalty, then the furthest next use, then the
 * smallest block. MIN evicts the largest (next use, block).
 */

#ifndef PACACHE_QA_NAIVE_ORACLE_HH
#define PACACHE_QA_NAIVE_ORACLE_HH

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cache/future.hh"
#include "cache/policy.hh"
#include "disk/power_model.hh"
#include "util/logging.hh"

namespace pacache
{

/** Naive O(n * k) OPG or MIN over a materialized access stream. */
class NaiveOracle : public ReplacementPolicy
{
  public:
    /** Belady's MIN. */
    NaiveOracle() = default;

    /** OPG priced by @p kind's idle energy, floored at @p theta. */
    NaiveOracle(const PowerModel &pm_, DpmKind kind_, Energy theta_ = 0)
        : pm(&pm_), kind(kind_), theta(theta_)
    {
        PACACHE_ASSERT(theta >= 0, "theta must be non-negative");
    }

    const char *
    name() const override
    {
        return pm ? "OPG-naive" : "Belady-naive";
    }

    /** Arm over the whole stream; required before the first access. */
    void
    prepare(const std::vector<BlockAccess> &accesses)
    {
        times.assign(accesses.size(), 0);
        next.assign(accesses.size(), kNever);
        residents.clear();
        std::size_t num_disks = 1;
        Time last = 0;
        Residents later; // block -> its next access, walking backwards
        for (std::size_t i = accesses.size(); i-- > 0;) {
            const BlockAccess &a = accesses[i];
            times[i] = a.time;
            num_disks =
                std::max<std::size_t>(num_disks, a.block.disk + 1);
            last = std::max(last, a.time);
            auto [it, first_seen] = later.try_emplace(a.block, i);
            if (!first_seen)
                next[i] = std::exchange(it->second, i);
        }
        // Far enough out that every idle-energy function is on its
        // deepest-mode tail; the value OPG prices a missing end at.
        const Time deepest = pm && !pm->thresholds().empty()
            ? pm->thresholds().back()
            : 0.0;
        bigTime = last + 4 * deepest + 1000.0;
        // `later` now holds each block's first access: the cold misses.
        detMiss.assign(num_disks, {});
        for (const auto &[block, first] : later)
            detMiss[block.disk].insert(first);
    }

    void
    beforeMiss(const BlockId &block, Time, std::size_t idx) override
    {
        PACACHE_ASSERT(detMiss[block.disk].erase(idx) == 1,
                       "miss at access ", idx, " was not deterministic");
    }

    void
    onAccess(const BlockId &block, CacheSlot, Time, std::size_t idx,
             bool hit) override
    {
        PACACHE_ASSERT(idx < next.size(), "access ", idx,
                       " outside the prepared stream");
        if (hit) {
            auto it = residents.find(block);
            PACACHE_ASSERT(it != residents.end() && it->second == idx,
                           "hit on a block not expected at access ", idx);
        }
        residents[block] = next[idx];
    }

    void
    onRemove(const BlockId &block, CacheSlot) override
    {
        auto it = residents.find(block);
        PACACHE_ASSERT(it != residents.end(), "removal of a non-resident");
        release(it);
    }

    BlockId
    evict(Time, std::size_t) override
    {
        PACACHE_ASSERT(!residents.empty(), "evict on an empty cache");
        // Lowest penalty (MIN prices everything at 0), then furthest
        // next use. Only residents never used again tie on next use;
        // the scan runs in block order, so OPG keeps the smallest of
        // them and MIN, with >=, the largest.
        auto victim = residents.begin();
        Energy lowest = penalty(victim->first.disk, victim->second);
        for (auto it = std::next(victim); it != residents.end(); ++it) {
            const Energy p = penalty(it->first.disk, it->second);
            const bool further = pm ? it->second > victim->second
                                    : it->second >= victim->second;
            if (p < lowest || (p == lowest && further)) {
                victim = it;
                lowest = p;
            }
        }
        const BlockId block = victim->first;
        release(victim);
        return block;
    }

    bool supportsPrefetch() const override { return false; }

    /** OPG penalty of a resident block, priced from scratch. */
    Energy
    penaltyOf(const BlockId &block) const
    {
        auto it = residents.find(block);
        PACACHE_ASSERT(it != residents.end(), "penaltyOf a non-resident");
        return penalty(block.disk, it->second);
    }

    /** Number of deterministic misses currently in a disk's S. */
    std::size_t
    deterministicMissCount(DiskId disk) const
    {
        return disk < detMiss.size() ? detMiss[disk].size() : 0;
    }

  private:
    using Residents = std::map<BlockId, std::size_t>; //!< -> next use
    /** Next use of an access whose block is never accessed again. */
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

    Energy
    penalty(DiskId disk, std::size_t at) const
    {
        if (!pm || at == kNever)
            return theta; // MIN, or never used again: evicting is free
        const std::set<std::size_t> &s = detMiss[disk];
        PACACHE_ASSERT(!s.contains(at),
                       "a resident's next access is a deterministic miss");
        const auto follower = s.upper_bound(at);
        const Time l = follower == s.begin()
            ? bigTime
            : times[at] - times[*std::prev(follower)];
        const Time f = follower == s.end() ? bigTime
                                           : times[*follower] - times[at];
        const auto e = [&](Time t) {
            return kind == DpmKind::Oracle ? pm->envelopeRef(t)
                                           : pm->practicalEnergyRef(t);
        };
        return std::max(std::max<Energy>(e(l) + e(f) - e(l + f), 0.0),
                        theta);
    }

    /** Drop a leaving resident; its next access joins S. */
    void
    release(Residents::iterator it)
    {
        if (it->second != kNever)
            detMiss[it->first.disk].insert(it->second);
        residents.erase(it);
    }

    const PowerModel *pm = nullptr; //!< null: MIN
    DpmKind kind = DpmKind::Oracle;
    Energy theta = 0;

    std::vector<Time> times;       //!< arrival time of each access
    std::vector<std::size_t> next; //!< next access to the same block
    Time bigTime = 0;              //!< stands in for "no leader/follower"
    std::vector<std::set<std::size_t>> detMiss; //!< per-disk S
    Residents residents;
};

} // namespace pacache

#endif // PACACHE_QA_NAIVE_ORACLE_HH
