/**
 * @file
 * Replacement policy interface for the storage cache.
 *
 * The cache tells the policy about every block access (with a
 * monotonically increasing access index that off-line policies use
 * to index their future knowledge) and asks it to surrender a victim
 * when the cache is full. Policies must track exactly the set of
 * blocks the cache holds: every block reported via a miss access is
 * resident until returned by evict() or passed to onRemove().
 *
 * The slot contract. The cache gives every resident block a dense
 * slot in [0, capacity) and passes it with every onAccess() and
 * onRemove(), so a policy can keep its books in flat arrays indexed
 * by slot (util/slot_list.hh) and serve a hit without a lookup:
 *
 *  - a slot names at most one resident block at a time, and a block
 *    keeps its slot for as long as it stays resident;
 *  - slots are handed out 0, 1, 2, ... until the cache is full;
 *  - after that, every victim's slot goes to the block that replaces
 *    it: the onAccess() miss that follows evict() carries the slot the
 *    victim held. This holds on the demand path (Cache::access) and
 *    on the prefetch path (Cache::insert) alike;
 *  - evict() still returns the victim's BlockId, and beforeMiss() has
 *    no slot, because the incoming block has none yet.
 *
 * A wrapper (PaDualPolicy) passes its own slots through to its
 * sub-policies, so a sub-policy sees an arbitrary subset of the slot
 * space; slot-indexed policies rely only on the first rule. Policies
 * keyed by block (ARC, LIRS, MQ, the off-line oracles) take the slot
 * and ignore it.
 */

#ifndef PACACHE_CACHE_POLICY_HH
#define PACACHE_CACHE_POLICY_HH

#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace pacache
{

/** Dense index of a resident block in its cache; see the file comment. */
using CacheSlot = uint32_t;

/** Abstract cache replacement policy. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Human-readable policy name ("LRU", "Belady", ...). */
    virtual const char *name() const = 0;

    /**
     * Notification of an access to @p block at time @p now.
     * @param slot the block's slot (on a miss: the slot it now holds)
     * @param idx  global index of this access in the expanded stream
     * @param hit  true if the block was resident before the access
     */
    virtual void onAccess(const BlockId &block, CacheSlot slot, Time now,
                          std::size_t idx, bool hit) = 0;

    /**
     * Called on every miss, before a potential evict() for the same
     * access. Lets policies that keep ghost history (ARC, MQ) adapt
     * to the incoming block before choosing a victim.
     */
    virtual void beforeMiss(const BlockId &, Time, std::size_t) {}

    /**
     * Remove a specific resident block, held in @p slot, from the
     * policy's books (external invalidation or migration between
     * wrapped policies).
     */
    virtual void onRemove(const BlockId &block, CacheSlot slot) = 0;

    /**
     * Choose a victim, remove it from the policy's books, and return
     * it. Only called when at least one block is resident.
     */
    virtual BlockId evict(Time now, std::size_t idx) = 0;

    /**
     * Off-line policies index their future knowledge by access
     * position, so speculative insertions (prefetch) would corrupt
     * their books; they override this to false.
     */
    virtual bool supportsPrefetch() const { return true; }
};

} // namespace pacache

#endif // PACACHE_CACHE_POLICY_HH
