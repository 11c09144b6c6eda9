#include "cache/belady_ref.hh"

#include "util/logging.hh"

namespace pacache
{

void
ReferenceBeladyPolicy::prepare(const std::vector<BlockAccess> &accesses)
{
    future = FutureKnowledge::buildRef(accesses);
    prepared = true;
    byNextUse.clear();
    nextOf.clear();
}

void
ReferenceBeladyPolicy::onAccess(const BlockId &block, Time,
                                std::size_t idx, bool hit)
{
    PACACHE_ASSERT(prepared, "Belady-ref requires prepare() before use");
    PACACHE_ASSERT(idx < future.size(), "access index out of range");
    const std::size_t next = future.nextUse(idx).idx;
    if (hit) {
        auto it = nextOf.find(block);
        PACACHE_ASSERT(it != nextOf.end(),
                       "Belady-ref hit on unknown block");
        byNextUse.erase({it->second, block});
        it->second = next;
    } else {
        nextOf[block] = next;
    }
    byNextUse.insert({next, block});
}

void
ReferenceBeladyPolicy::onRemove(const BlockId &block)
{
    auto it = nextOf.find(block);
    PACACHE_ASSERT(it != nextOf.end(),
                   "Belady-ref removal of unknown block");
    byNextUse.erase({it->second, block});
    nextOf.erase(it);
}

BlockId
ReferenceBeladyPolicy::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!byNextUse.empty(), "Belady-ref evict on empty cache");
    // Furthest next use: the largest key (kNever sorts last).
    auto it = std::prev(byNextUse.end());
    const BlockId victim = it->second;
    nextOf.erase(victim);
    byNextUse.erase(it);
    return victim;
}

} // namespace pacache
