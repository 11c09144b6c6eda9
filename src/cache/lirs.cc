#include "cache/lirs.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pacache
{

LirsPolicy::LirsPolicy(std::size_t capacity_blocks, double hir_fraction,
                       double ghost_factor)
    : cap(capacity_blocks)
{
    PACACHE_ASSERT(cap > 0, "LIRS needs positive capacity");
    PACACHE_ASSERT(hir_fraction > 0 && hir_fraction < 1,
                   "hir_fraction must be in (0,1)");
    const auto hir = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(cap) * hir_fraction));
    maxLir = cap > hir ? cap - hir : 1;
    maxStack = std::max<std::size_t>(
        cap + 1,
        static_cast<std::size_t>(static_cast<double>(cap) *
                                 ghost_factor));
}

void
LirsPolicy::stackPushTop(const BlockId &block, Entry &e)
{
    stack.push_front(block);
    e.inStack = true;
    e.stackIt = stack.begin();
}

void
LirsPolicy::stackErase(Entry &e)
{
    if (e.inStack) {
        stack.erase(e.stackIt);
        e.inStack = false;
    }
}

void
LirsPolicy::queuePushBack(const BlockId &block, Entry &e)
{
    queue.push_back(block);
    e.inQueue = true;
    e.queueIt = std::prev(queue.end());
}

void
LirsPolicy::queueErase(Entry &e)
{
    if (e.inQueue) {
        queue.erase(e.queueIt);
        e.inQueue = false;
    }
}

void
LirsPolicy::pruneStack()
{
    while (!stack.empty()) {
        auto it = table.find(stack.back());
        PACACHE_ASSERT(it != table.end(), "LIRS stack entry untracked");
        if (it->second.status == Status::Lir)
            return;
        // Trailing HIR entries carry no IRR information: drop them.
        if (it->second.status == Status::HirGhost) {
            --numGhosts;
            stack.pop_back();
            table.erase(it);
        } else {
            it->second.inStack = false;
            stack.pop_back();
        }
    }
}

void
LirsPolicy::demoteBottomLir()
{
    pruneStack();
    PACACHE_ASSERT(!stack.empty(), "no LIR block to demote");
    const BlockId bottom = stack.back();
    Entry &e = table.at(bottom);
    PACACHE_ASSERT(e.status == Status::Lir, "stack bottom must be LIR");
    stackErase(e);
    e.status = Status::HirResident;
    queuePushBack(bottom, e);
    --numLir;
    pruneStack();
}

void
LirsPolicy::trimGhosts()
{
    while (stack.size() > maxStack && numGhosts > 0) {
        // Drop the oldest (lowest) ghost in the stack.
        for (auto it = std::prev(stack.end());; --it) {
            auto t = table.find(*it);
            PACACHE_ASSERT(t != table.end(), "LIRS stack entry untracked");
            if (t->second.status == Status::HirGhost) {
                stack.erase(it);
                table.erase(t);
                --numGhosts;
                break;
            }
            if (it == stack.begin())
                return; // no ghost found (shouldn't happen)
        }
    }
}

void
LirsPolicy::onAccess(const BlockId &block, CacheSlot, Time, std::size_t,
                     bool hit)
{
    if (hit) {
        Entry &e = table.at(block);
        if (e.status == Status::Lir) {
            stackErase(e);
            stackPushTop(block, e);
            pruneStack();
        } else {
            PACACHE_ASSERT(e.status == Status::HirResident,
                           "hit on non-resident block");
            if (e.inStack) {
                // Small IRR: promote to LIR.
                stackErase(e);
                queueErase(e);
                e.status = Status::Lir;
                ++numLir;
                stackPushTop(block, e);
                if (numLir > maxLir)
                    demoteBottomLir();
                pruneStack();
            } else {
                // Large recency: stay HIR, refresh S and Q positions.
                stackPushTop(block, e);
                queueErase(e);
                queuePushBack(block, e);
            }
        }
        trimGhosts();
        return;
    }

    // Miss path: the cache has already evicted via evict() if needed.
    // Ghost state is re-read here rather than cached in beforeMiss():
    // the evict() between beforeMiss() and this call may prune the
    // incoming block's ghost entry, and wrappers that migrate blocks
    // between sub-policies (PA-LIRS) insert via a bare miss access
    // while this policy still holds the block as a ghost.
    if (auto ghost = table.find(block);
        ghost != table.end() &&
        ghost->second.status == Status::HirGhost) {
        Entry &e = ghost->second;
        --numGhosts;
        stackErase(e);
        e.status = Status::Lir;
        ++numLir;
        stackPushTop(block, e);
        if (numLir > maxLir)
            demoteBottomLir();
        pruneStack();
    } else {
        PACACHE_ASSERT(table.count(block) == 0, "LIRS double insert");
        Entry e{};
        if (numLir < maxLir) {
            // Warm-up: the first blocks form the LIR set.
            e.status = Status::Lir;
            ++numLir;
            auto [it, ok] = table.emplace(block, e);
            PACACHE_ASSERT(ok, "emplace failed");
            stackPushTop(block, it->second);
        } else {
            e.status = Status::HirResident;
            auto [it, ok] = table.emplace(block, e);
            PACACHE_ASSERT(ok, "emplace failed");
            stackPushTop(block, it->second);
            queuePushBack(block, it->second);
        }
    }
    trimGhosts();
}

void
LirsPolicy::onRemove(const BlockId &block, CacheSlot)
{
    auto it = table.find(block);
    PACACHE_ASSERT(it != table.end() &&
                       it->second.status != Status::HirGhost,
                   "LIRS removal of non-resident block");
    Entry &e = it->second;
    if (e.status == Status::Lir)
        --numLir;
    stackErase(e);
    queueErase(e);
    table.erase(it);
    pruneStack();
}

BlockId
LirsPolicy::evict(Time, std::size_t)
{
    if (!queue.empty()) {
        const BlockId victim = queue.front();
        Entry &e = table.at(victim);
        queueErase(e);
        if (e.inStack) {
            // Keep IRR history: the entry stays in S as a ghost.
            e.status = Status::HirGhost;
            ++numGhosts;
        } else {
            table.erase(victim);
        }
        return victim;
    }

    // No resident HIR block (can happen after external removals):
    // demote and evict the coldest LIR block.
    pruneStack();
    PACACHE_ASSERT(!stack.empty(), "LIRS evict on empty cache");
    const BlockId victim = stack.back();
    Entry &e = table.at(victim);
    PACACHE_ASSERT(e.status == Status::Lir, "stack bottom must be LIR");
    stackErase(e);
    --numLir;
    table.erase(victim);
    pruneStack();
    return victim;
}

void
LirsPolicy::validate() const
{
    std::size_t lir = 0, ghosts = 0, resident_hir = 0;
    for (const auto &[block, e] : table) {
        switch (e.status) {
          case Status::Lir:
            ++lir;
            PACACHE_ASSERT(e.inStack, "LIR block must be in the stack");
            PACACHE_ASSERT(!e.inQueue, "LIR block must not be queued");
            break;
          case Status::HirResident:
            ++resident_hir;
            PACACHE_ASSERT(e.inQueue, "resident HIR must be queued");
            break;
          case Status::HirGhost:
            ++ghosts;
            PACACHE_ASSERT(e.inStack && !e.inQueue,
                           "ghosts live only in the stack");
            break;
        }
    }
    PACACHE_ASSERT(lir == numLir, "LIR count drift");
    PACACHE_ASSERT(ghosts == numGhosts, "ghost count drift");
    PACACHE_ASSERT(resident_hir == queue.size(), "queue count drift");
    PACACHE_ASSERT(numLir <= maxLir, "LIR set exceeds target");
    if (!stack.empty()) {
        const auto &bottom = table.at(stack.back());
        PACACHE_ASSERT(bottom.status == Status::Lir || numLir == 0,
                       "stack bottom must be LIR after pruning");
    }
}

} // namespace pacache
