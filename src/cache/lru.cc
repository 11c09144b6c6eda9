#include "cache/lru.hh"

#include "util/logging.hh"

namespace pacache
{

void
LruStack::touch(const BlockId &block)
{
    if (const Index *i = index.find(block)) {
        order.moveToFront(*i);
        return;
    }
    Index i;
    if (freeIndices.empty()) {
        i = static_cast<Index>(blocks.size());
        blocks.push_back(block);
    } else {
        i = freeIndices.back();
        freeIndices.pop_back();
        blocks[i] = block;
    }
    index.emplace(block, i);
    order.pushFront(i);
}

void
LruStack::release(Index i)
{
    order.unlink(i);
    freeIndices.push_back(i);
}

bool
LruStack::remove(const BlockId &block)
{
    Index i;
    if (!index.take(block, i))
        return false;
    release(i);
    return true;
}

BlockId
LruStack::popLru()
{
    PACACHE_ASSERT(!order.empty(), "popLru on empty stack");
    const Index i = order.back();
    const BlockId victim = blocks[i];
    index.erase(victim);
    release(i);
    return victim;
}

void
LruPolicy::onAccess(const BlockId &block, CacheSlot slot, Time,
                    std::size_t, bool hit)
{
    if (hit) {
        order.moveToFront(slot);
        return;
    }
    growAt(blocks, slot) = block;
    order.pushFront(slot);
}

void
LruPolicy::onRemove(const BlockId &block, CacheSlot slot)
{
    PACACHE_ASSERT(order.contains(slot) && blocks[slot] == block,
                   "LRU removal of unknown block");
    order.unlink(slot);
}

BlockId
LruPolicy::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!order.empty(), "LRU evict on empty cache");
    return blocks[order.popBack()];
}

} // namespace pacache
