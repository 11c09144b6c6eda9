#include "cache/fifo.hh"

#include "util/logging.hh"

namespace pacache
{

void
FifoPolicy::onAccess(const BlockId &block, CacheSlot slot, Time,
                     std::size_t, bool hit)
{
    if (hit)
        return; // FIFO ignores re-references
    growAt(blocks, slot) = block;
    order.pushBack(slot);
}

void
FifoPolicy::onRemove(const BlockId &block, CacheSlot slot)
{
    PACACHE_ASSERT(order.contains(slot) && blocks[slot] == block,
                   "FIFO removal of unknown block");
    order.unlink(slot);
}

BlockId
FifoPolicy::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!order.empty(), "FIFO evict on empty cache");
    return blocks[order.popFront()];
}

} // namespace pacache
