/**
 * @file
 * A deliberately broken Belady used to exercise the qa differential
 * harness and shrinker: MIN's bookkeeping (residents ordered by next
 * use), but evict() returns the block whose next use is *soonest* —
 * the exact inversion of MIN. Any trace where eviction order matters
 * makes it diverge from NaiveOracle's MIN.
 */

#ifndef PACACHE_TESTS_SUPPORT_FAULTY_BELADY_HH
#define PACACHE_TESTS_SUPPORT_FAULTY_BELADY_HH

#include <set>
#include <unordered_map>
#include <utility>

#include "cache/future_window.hh"
#include "cache/policy.hh"
#include "util/logging.hh"

namespace pacache::test
{

/** Belady with the victim comparison inverted (injected fault). */
class NearestNextPolicy : public ReplacementPolicy
{
  public:
    const char *name() const override { return "Belady-nearest"; }

    void
    prepareWindowed(WindowedFuture &&fut)
    {
        future = std::move(fut);
        byNextUse.clear();
        nextOf.clear();
    }

    void
    onAccess(const BlockId &block, CacheSlot, Time, std::size_t idx,
             bool hit) override
    {
        PACACHE_ASSERT(future.built(), "prepareWindowed() required");
        const std::size_t next = future.nextUse(idx).idx;
        if (hit) {
            auto it = nextOf.find(block);
            PACACHE_ASSERT(it != nextOf.end(), "hit on unknown block");
            byNextUse.erase({it->second, block});
            it->second = next;
        } else {
            nextOf[block] = next;
        }
        byNextUse.insert({next, block});
    }

    void
    onRemove(const BlockId &block, CacheSlot) override
    {
        auto it = nextOf.find(block);
        PACACHE_ASSERT(it != nextOf.end(), "removal of unknown block");
        byNextUse.erase({it->second, block});
        nextOf.erase(it);
    }

    BlockId
    evict(Time, std::size_t) override
    {
        PACACHE_ASSERT(!byNextUse.empty(), "evict on empty cache");
        // The bug: nearest next use instead of furthest.
        auto it = byNextUse.begin();
        const BlockId victim = it->second;
        nextOf.erase(victim);
        byNextUse.erase(it);
        return victim;
    }

    bool supportsPrefetch() const override { return false; }

  private:
    WindowedFuture future;
    std::set<std::pair<std::size_t, BlockId>> byNextUse;
    std::unordered_map<BlockId, std::size_t> nextOf;
};

} // namespace pacache::test

#endif // PACACHE_TESTS_SUPPORT_FAULTY_BELADY_HH
