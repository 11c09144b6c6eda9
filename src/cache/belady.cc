#include "cache/belady.hh"

#include "util/logging.hh"

namespace pacache
{

void
BeladyPolicy::prepareWindowed(WindowedFuture &&fut)
{
    PACACHE_ASSERT(fut.built(), "prepareWindowed requires a built future");
    future = std::move(fut);
    future.takeColdSeeds(); // MIN reads next uses only
    byNextUse.clear();
    handleOf.clear();
}

void
BeladyPolicy::onAccess(const BlockId &block, CacheSlot, Time,
                       std::size_t idx, bool hit)
{
    PACACHE_ASSERT(future.built(),
                   "Belady requires prepareWindowed() before use");
    const std::size_t next = future.nextUse(idx).idx;
    if (hit) {
        Handle *hp = handleOf.find(block.packed());
        PACACHE_ASSERT(hp, "Belady hit on unknown block");
        byNextUse.update(*hp, UseKey{next, block});
    } else {
        const Handle h = byNextUse.push(UseKey{next, block});
        const bool inserted =
            handleOf.emplace(block.packed(), h).second;
        PACACHE_ASSERT(inserted, "Belady double insert");
    }
}

void
BeladyPolicy::onRemove(const BlockId &block, CacheSlot)
{
    Handle *hp = handleOf.find(block.packed());
    PACACHE_ASSERT(hp, "Belady removal of unknown block");
    byNextUse.erase(*hp);
    handleOf.erase(block.packed());
}

BlockId
BeladyPolicy::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!byNextUse.empty(), "Belady evict on empty cache");
    // Furthest next use: the largest key (kNever sorts last).
    const BlockId victim = byNextUse.top().second;
    byNextUse.pop();
    handleOf.erase(victim.packed());
    return victim;
}

} // namespace pacache
