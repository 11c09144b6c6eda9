#include "core/opg.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/flat_map.hh"
#include "util/logging.hh"

namespace pacache
{

template <typename F>
BasicOpgPolicy<F>::BasicOpgPolicy(const PowerModel &pm_, DpmKind kind,
                                  Energy theta_, std::size_t mem_budget)
    : pm(&pm_), dpmKind(kind), theta(theta_), memBudget(mem_budget)
{
    PACACHE_ASSERT(theta >= 0, "theta must be non-negative");
}

template <typename F>
void
BasicOpgPolicy<F>::resetState(std::size_t num_disks, Time last)
{
    // "No leader/follower" sentinel: far enough out that every energy
    // function has reached its linear (deepest-mode) tail.
    const auto &thr = pm->thresholds();
    const Time deepest = thr.empty() ? 0.0 : thr.back();
    bigTime = last + 4 * deepest + 1000.0;
    // A missing leader/follower always prices as E(bigTime); cache
    // the scan once instead of re-running it per gap endpoint.
    eBig = idleEnergy(bigTime);

    // Sets attached to the old pool return their pages before it
    // goes; the fresh sets start empty, so resizing never moves an
    // attached one.
    detMiss.clear();
    residentByNext.clear();
    spillPool = memBudget > 0 ? std::make_unique<SpillPool>(memBudget)
                              : nullptr;
    detMiss.resize(num_disks);
    residentByNext.resize(num_disks);
    if (spillPool) {
        for (auto &s : detMiss)
            s.attach(*spillPool);
        for (auto &s : residentByNext)
            s.attach(*spillPool);
    }
    evictOrder.clear();
    ready = true;
}

template <typename F>
void
BasicOpgPolicy<F>::prepare(const std::vector<BlockAccess> &accs)
{
    if constexpr (F::kStreaming) {
        (void)accs;
        PACACHE_FATAL("windowed OPG cannot materialize an access "
                      "stream; feed it via prepareWindowed()");
    } else {
        future = F::build(accs);
        std::size_t num_disks = 1;
        Time last = 0;
        for (const auto &a : accs) {
            num_disks =
                std::max<std::size_t>(num_disks, a.block.disk + 1);
            last = std::max(last, a.time);
        }
        resetState(num_disks, last);
        // S starts as the set of all cold misses (first references).
        for (std::size_t i = 0; i < accs.size(); ++i) {
            if (future.isFirstReference(i))
                detMiss[accs[i].block.disk].insert({i, accs[i].time});
        }
    }
}

template <typename F>
void
BasicOpgPolicy<F>::prepareWindowed(F &&fut)
{
    if constexpr (!F::kStreaming) {
        (void)fut;
        PACACHE_FATAL("prepareWindowed on the materialized oracle; "
                      "use prepare()");
    } else {
        PACACHE_ASSERT(fut.built(),
                       "prepareWindowed requires a built future");
        future = std::move(fut);
        resetState(future.numDisks(), future.endTime());
        for (const auto &seed : future.coldSeeds())
            detMiss[seed.disk].insert({seed.idx, seed.time});
    }
}

template <typename F>
Energy
BasicOpgPolicy<F>::computePenalty(DiskId disk, FutureAccess next) const
{
    if (next.idx == F::kNever)
        return 0.0; // never re-referenced: eviction costs nothing

    const auto nb = detMiss[disk].neighbors(next);
    PACACHE_ASSERT(!nb.present,
                   "resident block's next access is a deterministic miss");

    const Time t_x = next.time;
    const Time l = nb.hasPred ? t_x - nb.pred.time : bigTime;
    const Time f = nb.hasSucc ? nb.succ.time - t_x : bigTime;

    // eBig is the exact value idleEnergy(bigTime) returns, so the
    // substitution is bit-identical to pricing the missing end.
    const Energy e_l = nb.hasPred ? idleEnergy(l) : eBig;
    const Energy e_f = nb.hasSucc ? idleEnergy(f) : eBig;
    const Energy penalty = e_l + e_f - idleEnergy(l + f);
    return std::max<Energy>(penalty, 0.0);
}

template <typename F>
void
BasicOpgPolicy<F>::insertResident(const BlockId &block,
                                  FutureAccess next)
{
    const Energy penalty =
        std::max(computePenalty(block.disk, next), theta);
    const Handle h =
        evictOrder.push(EvictKey{penalty, next.idx, block.packed()});
    if (next.idx != F::kNever) {
        const bool fresh = residentByNext[block.disk].insert(
            next.idx, NextEntry{next.time, h});
        PACACHE_ASSERT(fresh, "OPG next-use index collision");
    }
}

template <typename F>
FutureAccess
BasicOpgPolicy<F>::unindex(const EvictKey &key)
{
    if (key.nextIdx == F::kNever)
        return {F::kNever, 0};
    NextEntry e{};
    const bool indexed =
        residentByNext[BlockId::fromPacked(key.block).disk].take(
            key.nextIdx, e);
    PACACHE_ASSERT(indexed, "OPG residentByNext out of sync");
    return {key.nextIdx, e.time};
}

template <typename F>
void
BasicOpgPolicy<F>::repriceGap(DiskId disk, FutureAccess lo, bool has_lo,
                              FutureAccess hi, bool has_hi)
{
    // Every resident with next access inside (lo, hi) shares the same
    // leader (lo) and follower (hi) — no per-block detMiss queries.
    const Time t_lo = lo.time;
    const Time t_hi = hi.time;
    const std::size_t lo_key = has_lo ? lo.idx : 0;
    const std::size_t hi_key = has_hi ? hi.idx : F::kNever;
    // A missing end always prices as the cached E(bigTime), exactly
    // what computePenalty substitutes. The whole-gap term is NOT
    // hoisted as E(t_hi - t_lo) even though l + f is mathematically
    // the gap width: FP addition is not associative, so
    // (t_x - t_lo) + (t_hi - t_x) can round to a different double
    // than t_hi - t_lo, and the penalty must stay bit-identical to
    // the per-block form computePenalty (and the reference policy)
    // evaluates.
    residentByNext[disk].forEachInRange(
        lo_key, hi_key, [&](std::size_t next_idx, const NextEntry &e) {
            const Time l = has_lo ? e.time - t_lo : bigTime;
            const Time f = has_hi ? t_hi - e.time : bigTime;
            const Energy e_l = has_lo ? idleEnergy(l) : eBig;
            const Energy e_f = has_hi ? idleEnergy(f) : eBig;
            const Energy penalty = e_l + e_f - idleEnergy(l + f);
            const Energy fresh =
                std::max(std::max<Energy>(penalty, 0.0), theta);
            const EvictKey &key = evictOrder.key(e.handle);
            if (fresh == key.penalty)
                return;
            evictOrder.update(e.handle,
                              EvictKey{fresh, next_idx, key.block});
        });
}

template <typename F>
void
BasicOpgPolicy<F>::detInsert(DiskId disk, FutureAccess miss)
{
    typename DetSet::Neighbors nb;
    const bool fresh = detMiss[disk].insertWithNeighbors(miss, nb);
    PACACHE_ASSERT(fresh, "duplicate deterministic miss");
    // miss split its gap in two: residents below it now follow it,
    // residents above now lead from it.
    repriceGap(disk, nb.pred, nb.hasPred, miss, true);
    repriceGap(disk, miss, true, nb.succ, nb.hasSucc);
}

template <typename F>
void
BasicOpgPolicy<F>::detErase(DiskId disk, std::size_t idx)
{
    typename DetSet::Neighbors nb;
    // Entries compare by index alone, so the probe needs no time.
    const bool was = detMiss[disk].eraseWithNeighbors({idx, 0}, nb);
    PACACHE_ASSERT(was, "miss not in deterministic-miss set");
    // idx's two gaps merged into one spanning (pred, succ).
    repriceGap(disk, nb.pred, nb.hasPred, nb.succ, nb.hasSucc);
}

template <typename F>
void
BasicOpgPolicy<F>::beforeMiss(const BlockId &block, Time,
                              std::size_t idx)
{
    // The access happening now is, by definition, a deterministic
    // miss; it leaves S.
    detErase(block.disk, idx);
}

template <typename F>
void
BasicOpgPolicy<F>::onAccess(const BlockId &block, Time,
                            std::size_t idx, bool hit)
{
    PACACHE_ASSERT(ready, "OPG requires prepare() before use");
    const FutureAccess next = future.nextUse(idx);
    if (!hit) {
        insertResident(block, next);
        return;
    }
    // Hit: the block stays resident, only its next access (and hence
    // its penalty) moves — update the heap key in place and re-slot
    // the next-use index entry. The hit itself is the block's
    // recorded next access, so taking idx out of the next-use index
    // yields the heap handle with no block-keyed hash probe.
    NextEntry e{};
    const bool unindexed = residentByNext[block.disk].take(idx, e);
    PACACHE_ASSERT(unindexed, "OPG hit on unindexed block");
    PACACHE_ASSERT(evictOrder.key(e.handle).nextIdx == idx &&
                       evictOrder.key(e.handle).block == block.packed(),
                   "stale next-use index on hit");
    const Energy penalty =
        std::max(computePenalty(block.disk, next), theta);
    evictOrder.update(e.handle,
                      EvictKey{penalty, next.idx, block.packed()});
    if (next.idx != F::kNever) {
        const bool fresh = residentByNext[block.disk].insert(
            next.idx, NextEntry{next.time, e.handle});
        PACACHE_ASSERT(fresh, "OPG next-use index collision");
    }
}

template <typename F>
void
BasicOpgPolicy<F>::onRemove(const BlockId &block)
{
    // External removal behaves like an eviction: the block's next
    // reference becomes a deterministic miss.
    const Handle h = findResident(block);
    const FutureAccess next = unindex(evictOrder.key(h));
    evictOrder.erase(h);
    if (next.idx != F::kNever)
        detInsert(block.disk, next);
}

template <typename F>
BlockId
BasicOpgPolicy<F>::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!evictOrder.empty(), "OPG evict on empty cache");
    // The victim is the heap top: no handle lookup needed, and pop()
    // is cheaper than erase(handle) from an arbitrary slot.
    const EvictKey key = evictOrder.key(evictOrder.topHandle());
    const BlockId victim = BlockId::fromPacked(key.block);
    const FutureAccess next = unindex(key);
    evictOrder.pop();
    if (next.idx != F::kNever)
        detInsert(victim.disk, next);
    return victim;
}

template <typename F>
typename BasicOpgPolicy<F>::Handle
BasicOpgPolicy<F>::findResident(const BlockId &block) const
{
    std::optional<Handle> found;
    evictOrder.forEach([&](Handle h, const EvictKey &key) {
        if (key.block == block.packed())
            found = h;
    });
    PACACHE_ASSERT(found, "OPG block not resident");
    return *found;
}

template <typename F>
Energy
BasicOpgPolicy<F>::penaltyOf(const BlockId &block) const
{
    return evictOrder.key(findResident(block)).penalty;
}

template <typename F>
std::size_t
BasicOpgPolicy<F>::deterministicMissCount(DiskId disk) const
{
    return disk < detMiss.size() ? detMiss[disk].size() : 0;
}

template <typename F>
void
BasicOpgPolicy<F>::validateInternalState(bool full) const
{
    // Cheap size-drift invariant, always on.
    std::size_t indexed = 0;
    for (const auto &byNext : residentByNext)
        indexed += byNext.size();
    PACACHE_ASSERT(indexed <= evictOrder.size(),
                   "next-use index size drift");
    if (!full)
        return;

    // Full cross-check: recompute every penalty from scratch and
    // verify every index entry against the incremental bookkeeping.
    evictOrder.validate();
    for (const auto &s : detMiss)
        s.checkInvariants();
    std::size_t finite = 0;
    FlatMap<std::uint64_t, bool> seen;
    evictOrder.forEach([&](Handle h, const EvictKey &key) {
        PACACHE_ASSERT(seen.emplace(key.block, true).second,
                       "block resident twice in the victim heap");
        const BlockId block = BlockId::fromPacked(key.block);
        FutureAccess next{key.nextIdx, 0};
        if (key.nextIdx != F::kNever) {
            ++finite;
            // Copied out: pricing below may page the chunk away.
            const NextEntry *e =
                residentByNext[block.disk].find(key.nextIdx);
            PACACHE_ASSERT(e && e->handle == h,
                           "missing next-use index entry");
            next.time = e->time;
        }
        const Energy freshPenalty =
            std::max(computePenalty(block.disk, next), theta);
        PACACHE_ASSERT(freshPenalty == key.penalty,
                       "stale penalty for disk ", block.disk,
                       " block ", block.block, ": cached ",
                       key.penalty, " fresh ", freshPenalty);
    });
    PACACHE_ASSERT(indexed == finite,
                   "next-use index holds stale entries");
}

template class BasicOpgPolicy<FutureKnowledge>;
template class BasicOpgPolicy<WindowedFuture>;

} // namespace pacache
