#include "cache/clock.hh"

#include "util/logging.hh"

namespace pacache
{

void
ClockPolicy::onAccess(const BlockId &block, CacheSlot slot, Time,
                      std::size_t, bool hit)
{
    if (hit) {
        PACACHE_ASSERT(ring.contains(slot), "CLOCK hit on unknown block");
        referenced[slot] = 1;
        return;
    }
    growAt(blocks, slot) = block;
    growAt(referenced, slot) = 0;
    // Insert just before the hand (i.e. at the "oldest" position the
    // hand will reach last).
    ring.insertBefore(hand, slot);
    if (hand == SlotList::kNil)
        hand = slot;
}

void
ClockPolicy::unlink(CacheSlot slot)
{
    if (slot == hand)
        hand = ring.size() == 1 ? SlotList::kNil : after(slot);
    ring.unlink(slot);
}

void
ClockPolicy::onRemove(const BlockId &block, CacheSlot slot)
{
    PACACHE_ASSERT(ring.contains(slot) && blocks[slot] == block,
                   "CLOCK removal of unknown block");
    unlink(slot);
}

BlockId
ClockPolicy::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!ring.empty(), "CLOCK evict on empty cache");
    while (referenced[hand]) {
        referenced[hand] = 0;
        hand = after(hand);
    }
    const CacheSlot victim = hand;
    unlink(victim);
    return blocks[victim];
}

} // namespace pacache
