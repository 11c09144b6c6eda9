/**
 * @file
 * ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03), one of
 * the modern policies the paper names as candidates for the PA
 * treatment.
 *
 * Resident blocks live in T1 (recency) or T2 (frequency); evicted
 * blocks leave ghosts in B1/B2. A ghost hit adapts the target size p
 * of T1. The framework drives evictions externally, so REPLACE runs
 * inside evict() using the ghost-hit information captured by
 * beforeMiss().
 */

#ifndef PACACHE_CACHE_ARC_HH
#define PACACHE_CACHE_ARC_HH

#include "cache/lru.hh"
#include "cache/policy.hh"

namespace pacache
{

/** ARC replacement policy. */
class ArcPolicy : public ReplacementPolicy
{
  public:
    /** @param capacity_blocks must match the cache capacity. */
    explicit ArcPolicy(std::size_t capacity_blocks);

    const char *name() const override { return "ARC"; }

    void beforeMiss(const BlockId &block, Time now,
                    std::size_t idx) override;
    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;

    /** Current adaptation target for |T1| (test hook). */
    double targetT1() const { return p; }

    std::size_t t1Size() const { return t1.size(); }
    std::size_t t2Size() const { return t2.size(); }

  private:
    void trimGhosts();

    std::size_t c;   //!< capacity
    double p = 0;    //!< target size of T1

    LruStack t1, t2; //!< resident
    LruStack b1, b2; //!< ghosts

    /** Where beforeMiss found the incoming block. */
    enum class GhostHit { None, B1, B2 };
    GhostHit pendingGhost = GhostHit::None;
};

} // namespace pacache

#endif // PACACHE_CACHE_ARC_HH
