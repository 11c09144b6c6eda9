#include "cache/mq.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pacache
{

MqPolicy::MqPolicy(const Params &params) : p(params), queues(p.numQueues)
{
    PACACHE_ASSERT(p.numQueues > 0, "MQ needs at least one queue");
    PACACHE_ASSERT(p.lifeTime > 0, "MQ lifeTime must be positive");
}

std::size_t
MqPolicy::queueFor(uint64_t ref_count) const
{
    std::size_t q = 0;
    while (ref_count > 1 && q + 1 < p.numQueues) {
        ref_count >>= 1;
        ++q;
    }
    return q;
}

void
MqPolicy::insert(const BlockId &block, uint64_t ref_count)
{
    const std::size_t q = queueFor(ref_count);
    queues[q].push_back(Entry{block, ref_count, clock + p.lifeTime});
    index[block] = Locator{q, std::prev(queues[q].end())};
}

void
MqPolicy::demoteExpired()
{
    // Check the LRU end of every queue above Q0 and demote entries
    // whose lifetime lapsed (MQ's "adjust" step).
    for (std::size_t q = p.numQueues; q-- > 1;) {
        while (!queues[q].empty() &&
               queues[q].front().expireAt < clock) {
            Entry e = queues[q].front();
            queues[q].pop_front();
            e.expireAt = clock + p.lifeTime;
            queues[q - 1].push_back(e);
            index[e.block] = Locator{q - 1,
                                     std::prev(queues[q - 1].end())};
        }
    }
}

void
MqPolicy::ghostRemember(const BlockId &block, uint64_t ref_count)
{
    auto git = ghosts.find(block);
    if (git != ghosts.end()) {
        ghostOrder.erase(git->second);
        ghosts.erase(git);
    }
    ghostOrder.emplace_back(block, ref_count);
    ghosts[block] = std::prev(ghostOrder.end());
    while (ghostOrder.size() > p.ghostCapacity) {
        ghosts.erase(ghostOrder.front().first);
        ghostOrder.pop_front();
    }
}

void
MqPolicy::beforeMiss(const BlockId &block, Time, std::size_t)
{
    auto git = ghosts.find(block);
    if (git != ghosts.end()) {
        pendingRefCount = git->second->second;
        ghostOrder.erase(git->second);
        ghosts.erase(git);
    } else {
        pendingRefCount = 0;
    }
}

void
MqPolicy::onAccess(const BlockId &block, CacheSlot, Time, std::size_t,
                   bool hit)
{
    ++clock;
    if (hit) {
        auto it = index.find(block);
        PACACHE_ASSERT(it != index.end(), "MQ hit on unknown block");
        Entry e = *it->second.it;
        queues[it->second.queue].erase(it->second.it);
        ++e.refCount;
        e.expireAt = clock + p.lifeTime;
        const std::size_t q = queueFor(e.refCount);
        queues[q].push_back(e);
        index[block] = Locator{q, std::prev(queues[q].end())};
    } else {
        insert(block, pendingRefCount + 1);
        pendingRefCount = 0;
    }
    demoteExpired();
}

void
MqPolicy::onRemove(const BlockId &block, CacheSlot)
{
    auto it = index.find(block);
    PACACHE_ASSERT(it != index.end(), "MQ removal of unknown block");
    queues[it->second.queue].erase(it->second.it);
    index.erase(it);
}

BlockId
MqPolicy::evict(Time, std::size_t)
{
    for (auto &q : queues) {
        if (q.empty())
            continue;
        Entry e = q.front();
        q.pop_front();
        index.erase(e.block);
        ghostRemember(e.block, e.refCount);
        return e.block;
    }
    PACACHE_PANIC("MQ evict on empty cache");
}

} // namespace pacache
