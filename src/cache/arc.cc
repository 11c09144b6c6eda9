#include "cache/arc.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pacache
{

ArcPolicy::ArcPolicy(std::size_t capacity_blocks) : c(capacity_blocks)
{
    PACACHE_ASSERT(c > 0, "ARC needs positive capacity");
}

void
ArcPolicy::beforeMiss(const BlockId &block, Time, std::size_t)
{
    if (b1.contains(block)) {
        const double delta =
            b1.size() >= b2.size()
                ? 1.0
                : static_cast<double>(b2.size()) /
                      static_cast<double>(b1.size());
        p = std::min(p + delta, static_cast<double>(c));
        b1.remove(block);
        pendingGhost = GhostHit::B1;
    } else if (b2.contains(block)) {
        const double delta =
            b2.size() >= b1.size()
                ? 1.0
                : static_cast<double>(b1.size()) /
                      static_cast<double>(b2.size());
        p = std::max(p - delta, 0.0);
        b2.remove(block);
        pendingGhost = GhostHit::B2;
    } else {
        pendingGhost = GhostHit::None;
    }
}

void
ArcPolicy::onAccess(const BlockId &block, CacheSlot, Time, std::size_t,
                    bool hit)
{
    if (hit) {
        // T1 or T2 hit promotes to T2 MRU.
        t1.remove(block);
        t2.touch(block);
        return;
    }
    // Miss path: ghost hits go to T2, brand-new blocks to T1.
    if (pendingGhost == GhostHit::None)
        t1.touch(block);
    else
        t2.touch(block);
    pendingGhost = GhostHit::None;
    trimGhosts();
}

void
ArcPolicy::onRemove(const BlockId &block, CacheSlot)
{
    // External removal leaves no ghost (the block is gone for reasons
    // unrelated to replacement).
    if (!t1.remove(block)) {
        const bool present = t2.remove(block);
        PACACHE_ASSERT(present, "ARC removal of unknown block");
    }
}

BlockId
ArcPolicy::evict(Time, std::size_t)
{
    // REPLACE(x, p): prefer T1 while it exceeds the target; a B2
    // ghost hit with |T1| exactly at the target also evicts from T1.
    BlockId victim;
    const bool t1_over =
        !t1.empty() &&
        (static_cast<double>(t1.size()) > p ||
         (pendingGhost == GhostHit::B2 &&
          static_cast<double>(t1.size()) == p));
    if (t1_over || t2.empty()) {
        victim = t1.popLru();
        b1.touch(victim);
    } else {
        victim = t2.popLru();
        b2.touch(victim);
    }
    trimGhosts();
    return victim;
}

void
ArcPolicy::trimGhosts()
{
    // |T1| + |B1| <= c, and the four lists together hold at most 2c.
    while (t1.size() + b1.size() > c && !b1.empty())
        b1.popLru();
    while (t1.size() + t2.size() + b1.size() + b2.size() > 2 * c &&
           !b2.empty()) {
        b2.popLru();
    }
}

} // namespace pacache
