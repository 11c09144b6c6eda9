#include "core/pa_lru.hh"

#include "util/logging.hh"

namespace pacache
{

void
PaLruPolicy::onAccess(const BlockId &block, CacheSlot slot, Time,
                      std::size_t, bool hit)
{
    const uint8_t want = cls->isPriority(block.disk) ? 1 : 0;
    if (hit) {
        uint8_t &have = stackOf[slot];
        if (have == want) {
            stacks[want].moveToFront(slot);
            return;
        }
        // The disk's class changed since insertion; migrate.
        stacks[have].unlink(slot);
        stacks[want].pushFront(slot);
        have = want;
        return;
    }
    growAt(blocks, slot) = block;
    growAt(stackOf, slot) = want;
    stacks[want].pushFront(slot);
}

void
PaLruPolicy::onRemove(const BlockId &block, CacheSlot slot)
{
    PACACHE_ASSERT(slot < stackOf.size() &&
                       stacks[stackOf[slot]].contains(slot) &&
                       blocks[slot] == block,
                   "PA-LRU removal of unknown block");
    stacks[stackOf[slot]].unlink(slot);
}

BlockId
PaLruPolicy::evict(Time, std::size_t)
{
    SlotList &from = stacks[0].empty() ? stacks[1] : stacks[0];
    PACACHE_ASSERT(!from.empty(), "PA-LRU evict on empty cache");
    return blocks[from.popBack()];
}

PaDualPolicy::PaDualPolicy(const PaClassifier &classifier,
                           std::unique_ptr<ReplacementPolicy> regular,
                           std::unique_ptr<ReplacementPolicy> priority,
                           std::string label_)
    : cls(&classifier), label(std::move(label_))
{
    sub[0] = std::move(regular);
    sub[1] = std::move(priority);
    PACACHE_ASSERT(sub[0] && sub[1], "PA wrapper needs two base policies");
}

void
PaDualPolicy::beforeMiss(const BlockId &block, Time now, std::size_t idx)
{
    const uint8_t which = cls->isPriority(block.disk) ? 1 : 0;
    sub[which]->beforeMiss(block, now, idx);
}

void
PaDualPolicy::onAccess(const BlockId &block, CacheSlot slot, Time now,
                       std::size_t idx, bool hit)
{
    const uint8_t want = cls->isPriority(block.disk) ? 1 : 0;
    if (hit) {
        PACACHE_ASSERT(slot < home.size(), "PA wrapper hit on unknown block");
        uint8_t &have = home[slot];
        if (have == want) {
            sub[want]->onAccess(block, slot, now, idx, true);
            return;
        }
        // Classification changed: migrate between sub-policies.
        sub[have]->onRemove(block, slot);
        --counts[have];
        sub[want]->onAccess(block, slot, now, idx, false);
        ++counts[want];
        have = want;
        return;
    }
    sub[want]->onAccess(block, slot, now, idx, false);
    ++counts[want];
    growAt(home, slot) = want;
}

void
PaDualPolicy::onRemove(const BlockId &block, CacheSlot slot)
{
    PACACHE_ASSERT(slot < home.size(),
                   "PA wrapper removal of unknown block");
    const uint8_t which = home[slot];
    sub[which]->onRemove(block, slot);
    --counts[which];
}

BlockId
PaDualPolicy::evict(Time now, std::size_t idx)
{
    const uint8_t which = counts[0] > 0 ? 0 : 1;
    PACACHE_ASSERT(counts[which] > 0, "PA wrapper evict on empty cache");
    const BlockId victim = sub[which]->evict(now, idx);
    --counts[which];
    return victim;
}

} // namespace pacache
