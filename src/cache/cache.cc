#include "cache/cache.hh"

#include "obs/observer.hh"
#include "util/logging.hh"
#include "util/slot_list.hh"

namespace pacache
{

Cache::Cache(std::size_t capacity_blocks, ReplacementPolicy &policy)
    : capacityBlocks(capacity_blocks), repl(&policy)
{
    PACACHE_ASSERT(capacity_blocks > 0, "cache needs positive capacity");
    // Slot lists reserve their top indices as sentinels.
    if (capacity_blocks > std::size_t{SlotList::kMaxIndex} + 1) {
        PACACHE_FATAL("cache capacity of ", capacity_blocks,
                      " blocks does not fit the 32-bit cache slot index"
                      " (at most ", std::size_t{SlotList::kMaxIndex} + 1,
                      " blocks)");
    }
    // The resident table reaches exactly capacity entries; sizing it
    // now keeps the steady-state churn rehash-free. The per-slot
    // entries grow on demand instead: an infinite cache's capacity is
    // the whole trace's block volume.
    resident.reserve(capacity_blocks);
}

bool
Cache::recordFirstSeen(const BlockId &block)
{
    if (block.block >= kSeenBitmapLimit)
        return everSeenSparse.testAndSet(block.packed());
    if (block.disk >= seenBits.size())
        seenBits.resize(block.disk + 1);
    auto &bits = seenBits[block.disk];
    const std::size_t word = block.block >> 6;
    if (word >= bits.size())
        bits.resize(std::max(word + 1, bits.size() * 2), 0);
    const uint64_t mask = uint64_t{1} << (block.block & 63);
    const bool first = !(bits[word] & mask);
    bits[word] |= mask;
    return first;
}

CacheSlot
Cache::slotOf(const BlockId &block, const char *what) const
{
    const CacheSlot *slot = resident.find(block.packed());
    PACACHE_ASSERT(slot, what, " on non-resident block");
    return *slot;
}

void
Cache::addTo(SlotSets &sets, uint32_t Entry::*pos, DiskId disk,
             CacheSlot slot)
{
    std::vector<CacheSlot> &set = growAt(sets, disk);
    entries[slot].*pos = static_cast<uint32_t>(set.size());
    set.push_back(slot);
}

void
Cache::removeFrom(SlotSets &sets, uint32_t Entry::*pos, DiskId disk,
                  CacheSlot slot)
{
    std::vector<CacheSlot> &set = sets[disk];
    const uint32_t at = entries[slot].*pos;
    const CacheSlot moved = set.back();
    set[at] = moved;
    entries[moved].*pos = at;
    set.pop_back();
    entries[slot].*pos = kNotInSet;
}

CacheResult
Cache::access(const BlockId &block, Time now, std::size_t idx)
{
    CacheResult result;
    ++counters.accesses;
    if (const CacheSlot *slot = resident.find(block.packed())) {
        ++counters.hits;
        result.hit = true;
        // coldMisses counts first-ever demand accesses. Without
        // prefetching a hit implies a prior demand access, so the hit
        // path skips the first-seen probe; once insert() has run, a
        // block's first access can hit and the probe is needed.
        if (counters.prefetchInserts && recordFirstSeen(block))
            ++counters.coldMisses;
        repl->onAccess(block, *slot, now, idx, true);
        if (obs)
            obs->cacheAccess(true);
        return result;
    }

    if (recordFirstSeen(block)) {
        ++counters.coldMisses;
        result.coldMiss = true;
    }
    ++counters.misses;
    repl->beforeMiss(block, now, idx);
    bringIn(block, now, idx, result);
    if (obs)
        obs->cacheAccess(false);
    return result;
}

CacheResult
Cache::insert(const BlockId &block, Time now, std::size_t idx)
{
    CacheResult result;
    if (resident.contains(block.packed())) {
        result.hit = true;
        return result;
    }
    ++counters.prefetchInserts;
    bringIn(block, now, idx, result);
    return result;
}

void
Cache::bringIn(const BlockId &block, Time now, std::size_t idx,
               CacheResult &result)
{
    // Nothing leaves the cache without a replacement, so until it is
    // full the resident count is the next unused slot.
    CacheSlot slot = static_cast<CacheSlot>(resident.size());
    if (resident.size() >= capacityBlocks) {
        const BlockId victim = repl->evict(now, idx);
        const bool wasResident = resident.take(victim.packed(), slot);
        PACACHE_ASSERT(wasResident,
                       "policy evicted a non-resident block");
        Entry &gone = entries[slot];
        result.evicted = true;
        result.victim = victim;
        result.victimDirty = gone.dirtyPos != kNotInSet;
        result.victimLogged = gone.loggedPos != kNotInSet;
        if (result.victimDirty)
            removeFrom(dirtySlots, &Entry::dirtyPos, victim.disk, slot);
        if (result.victimLogged)
            removeFrom(loggedSlots, &Entry::loggedPos, victim.disk, slot);
        ++counters.evictions;
        if (obs)
            obs->cacheEviction(victim, result.victimDirty);
    }

    const uint64_t key = block.packed();
    growAt(entries, slot) = Entry{key, kNotInSet, kNotInSet};
    resident.emplace(key, slot);
    repl->onAccess(block, slot, now, idx, false);
}

void
Cache::markDirty(const BlockId &block)
{
    const CacheSlot slot = slotOf(block, "markDirty");
    if (entries[slot].dirtyPos == kNotInSet)
        addTo(dirtySlots, &Entry::dirtyPos, block.disk, slot);
}

void
Cache::markClean(const BlockId &block)
{
    const CacheSlot slot = slotOf(block, "markClean");
    if (entries[slot].dirtyPos != kNotInSet)
        removeFrom(dirtySlots, &Entry::dirtyPos, block.disk, slot);
}

bool
Cache::isDirty(const BlockId &block) const
{
    const CacheSlot *slot = resident.find(block.packed());
    return slot && entries[*slot].dirtyPos != kNotInSet;
}

void
Cache::markLogged(const BlockId &block)
{
    const CacheSlot slot = slotOf(block, "markLogged");
    if (entries[slot].loggedPos == kNotInSet)
        addTo(loggedSlots, &Entry::loggedPos, block.disk, slot);
}

void
Cache::clearLogged(const BlockId &block)
{
    const CacheSlot *slot = resident.find(block.packed());
    if (slot && entries[*slot].loggedPos != kNotInSet)
        removeFrom(loggedSlots, &Entry::loggedPos, block.disk, *slot);
}

bool
Cache::isLogged(const BlockId &block) const
{
    const CacheSlot *slot = resident.find(block.packed());
    return slot && entries[*slot].loggedPos != kNotInSet;
}

std::vector<BlockId>
Cache::blocksIn(const SlotSets &sets, DiskId disk) const
{
    std::vector<BlockId> out;
    if (disk < sets.size()) {
        out.reserve(sets[disk].size());
        for (const CacheSlot slot : sets[disk])
            out.push_back(BlockId::fromPacked(entries[slot].key));
    }
    return out;
}

std::vector<BlockId>
Cache::dirtyBlocksOf(DiskId disk) const
{
    return blocksIn(dirtySlots, disk);
}

std::vector<BlockId>
Cache::loggedBlocksOf(DiskId disk) const
{
    return blocksIn(loggedSlots, disk);
}

std::size_t
Cache::dirtyCount(DiskId disk) const
{
    return disk < dirtySlots.size() ? dirtySlots[disk].size() : 0;
}

} // namespace pacache
