/**
 * @file
 * ReferenceOpgPolicy — the node-based OPG implementation that
 * predated the indexed-heap/ordered-set fast path, retained verbatim
 * so the rewrite stays equivalence-testable forever (a library class
 * because the golden-equivalence suite and micro_opg both replay it).
 *
 * Semantics are identical to OpgPolicy (see core/opg.hh for the
 * algorithm); the differences are purely structural:
 *
 *  - victim order lives in a std::set<EvictKey> (erase+insert per
 *    reprice instead of an O(log n) in-place heap update);
 *  - per-disk deterministic misses live in std::set<std::size_t> and
 *    residents in a std::multimap keyed by next access (linear
 *    equal_range scan on erase);
 *  - gap pricing optionally calls the legacy per-call envelope scan /
 *    threshold walk (refPricing = true, the true pre-fast-path
 *    configuration) instead of the precomputed segment tables.
 */

#ifndef PACACHE_CORE_OPG_REF_HH
#define PACACHE_CORE_OPG_REF_HH

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "cache/policy.hh"
#include "core/opg.hh"
#include "disk/power_model.hh"

namespace pacache
{

/** The retained reference implementation of OPG. */
class ReferenceOpgPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param pm          power model used to price idle periods
     * @param kind        which DPM the disks run (prices E)
     * @param theta       penalty floor in Joules (0 = pure OPG)
     * @param refPricing  price gaps with the legacy envelope scan /
     *                    threshold walk (true = the full pre-rewrite
     *                    hot path) instead of the segment tables
     */
    ReferenceOpgPolicy(const PowerModel &pm, DpmKind kind,
                       Energy theta = 0, bool refPricing = true);

    const char *name() const override { return "OPG-ref"; }

    void prepare(const std::vector<BlockAccess> &accesses) override;

    void beforeMiss(const BlockId &block, Time now,
                    std::size_t idx) override;
    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;
    bool supportsPrefetch() const override { return false; }
    bool isOffline() const override { return true; }

    /** Energy penalty currently assigned to a resident block. */
    Energy penaltyOf(const BlockId &block) const;

    /** Number of deterministic misses currently tracked for a disk. */
    std::size_t deterministicMissCount(DiskId disk) const;

  private:
    struct Info
    {
        std::size_t nextIdx;
        Energy penalty;
    };

    /** Victim-ordering key: min penalty, then furthest next access. */
    struct EvictKey
    {
        Energy penalty;
        std::size_t nextIdx;
        BlockId block;

        bool
        operator<(const EvictKey &o) const
        {
            if (penalty != o.penalty)
                return penalty < o.penalty;
            if (nextIdx != o.nextIdx)
                return nextIdx > o.nextIdx; // furthest first
            return block < o.block;
        }
    };

    Time timeOf(std::size_t idx) const;
    Energy idleEnergy(Time t) const;
    Energy computePenalty(DiskId disk, std::size_t next_idx) const;

    void insertResident(const BlockId &block, std::size_t next_idx);
    void eraseResident(const BlockId &block);
    /** Re-price resident blocks with next access in (lo, hi). */
    void repriceRange(DiskId disk, std::size_t lo, std::size_t hi);
    void detInsert(DiskId disk, std::size_t idx);
    void detErase(DiskId disk, std::size_t idx);

    const PowerModel *pm;
    DpmKind dpmKind;
    Energy theta;
    bool refPricing;

    const std::vector<BlockAccess> *accesses = nullptr;
    FutureKnowledge future;
    Time bigTime = 0; //!< stands in for "no leader/follower"

    std::vector<std::set<std::size_t>> detMiss; //!< per-disk S
    std::vector<std::multimap<std::size_t, BlockId>> residentByNext;
    std::unordered_map<BlockId, Info> info;
    std::set<EvictKey> evictOrder;
};

} // namespace pacache

#endif // PACACHE_CORE_OPG_REF_HH
