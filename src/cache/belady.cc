#include "cache/belady.hh"

#include "util/logging.hh"

namespace pacache
{

template <typename F>
void
BasicBeladyPolicy<F>::prepare(const std::vector<BlockAccess> &accesses)
{
    if constexpr (F::kStreaming) {
        (void)accesses;
        PACACHE_FATAL("windowed Belady cannot materialize an access "
                      "stream; feed it via prepareWindowed()");
    } else {
        future = F::build(accesses);
        prepared = true;
        byNextUse.clear();
        handleOf.clear();
        byNextUse.reserve(accesses.size() / 4 + 16);
        // handleOf holds one entry per *resident* block, so it stays
        // cache-capacity-sized; let it grow instead of sizing it to
        // the trace (a trace-sized table would spread the per-access
        // probes over megabytes).
    }
}

template <typename F>
void
BasicBeladyPolicy<F>::prepareWindowed(F &&fut)
{
    if constexpr (!F::kStreaming) {
        (void)fut;
        PACACHE_FATAL("prepareWindowed on the materialized MIN; "
                      "use prepare()");
    } else {
        PACACHE_ASSERT(fut.built(),
                       "prepareWindowed requires a built future");
        future = std::move(fut);
        prepared = true;
        byNextUse.clear();
        handleOf.clear();
    }
}

template <typename F>
void
BasicBeladyPolicy<F>::onAccess(const BlockId &block, CacheSlot, Time,
                               std::size_t idx, bool hit)
{
    PACACHE_ASSERT(prepared, "Belady requires prepare() before use");
    PACACHE_ASSERT(idx < future.size(), "access index out of range");
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

template <typename F>
void
BasicBeladyPolicy<F>::onRemove(const BlockId &block, CacheSlot)
{
    Handle *hp = handleOf.find(block.packed());
    PACACHE_ASSERT(hp, "Belady removal of unknown block");
    byNextUse.erase(*hp);
    handleOf.erase(block.packed());
}

template <typename F>
BlockId
BasicBeladyPolicy<F>::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!byNextUse.empty(), "Belady evict on empty cache");
    // Furthest next use: the largest key (kNever sorts last).
    const BlockId victim = byNextUse.top().second;
    byNextUse.pop();
    handleOf.erase(victim.packed());
    return victim;
}

template class BasicBeladyPolicy<FutureKnowledge>;
template class BasicBeladyPolicy<WindowedFuture>;

} // namespace pacache
