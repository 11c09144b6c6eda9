/**
 * @file
 * CLOCK (second-chance) replacement: a circular list with reference
 * bits — the classic low-overhead LRU approximation.
 */

#ifndef PACACHE_CACHE_CLOCK_HH
#define PACACHE_CACHE_CLOCK_HH

#include <cstdint>
#include <vector>

#include "cache/policy.hh"
#include "util/slot_list.hh"

namespace pacache
{

/** CLOCK replacement policy; the ring and reference bits are per slot. */
class ClockPolicy : public ReplacementPolicy
{
  public:
    const char *name() const override { return "CLOCK"; }

    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;

  private:
    /** Hand successor with wrap-around (kNil only when empty). */
    CacheSlot
    after(CacheSlot slot) const
    {
        const CacheSlot next = ring.next(slot);
        return next != SlotList::kNil ? next : ring.front();
    }

    /** Take @p slot out of the ring, moving the hand off it first. */
    void unlink(CacheSlot slot);

    SlotList ring;                   //!< linear storage, wrapped manually
    CacheSlot hand = SlotList::kNil; //!< kNil iff the ring is empty
    std::vector<BlockId> blocks;     //!< per slot
    std::vector<uint8_t> referenced; //!< per slot
};

} // namespace pacache

#endif // PACACHE_CACHE_CLOCK_HH
