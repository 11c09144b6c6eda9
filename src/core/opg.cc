#include "core/opg.hh"

#include <algorithm>
#include <utility>

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
BasicOpgPolicy<F>::finishPrepare(
    std::size_t num_disks, Time last,
    const std::vector<std::pair<DiskId, std::size_t>> &cold)
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
    handleOf.clear();
    evictOrder.clear();

    // S starts as the set of all cold misses (first references).
    for (const auto &[disk, i] : cold)
        detMiss[disk].insert(i);
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

        // One pass over the 40-byte records: disk count, trace end,
        // and the cold-miss indices (each block's first reference)
        // that seed S. The per-disk inserts are deferred until the
        // disk count is known; cold[] holds one entry per unique
        // block.
        std::size_t num_disks = 1;
        Time last = 0;
        std::vector<std::pair<DiskId, std::size_t>> cold;
        for (std::size_t i = 0; i < accs.size(); ++i) {
            const auto &a = accs[i];
            num_disks =
                std::max<std::size_t>(num_disks, a.block.disk + 1);
            last = std::max(last, a.time);
            if (future.isFirstReference(i))
                cold.emplace_back(a.block.disk, i);
        }
        finishPrepare(num_disks, last, cold);
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
        std::vector<std::pair<DiskId, std::size_t>> cold;
        cold.reserve(future.coldSeeds().size());
        for (const auto &seed : future.coldSeeds())
            cold.emplace_back(seed.disk, seed.idx);
        finishPrepare(future.numDisks(), future.endTime(), cold);
    }
}

template <typename F>
Energy
BasicOpgPolicy<F>::computePenalty(DiskId disk,
                                  std::size_t next_idx) const
{
    if (next_idx == F::kNever)
        return 0.0; // never re-referenced: eviction costs nothing

    const auto nb = detMiss[disk].neighbors(next_idx);
    PACACHE_ASSERT(!nb.present,
                   "resident block's next access is a deterministic miss");

    const Time t_x = future.timeOf(next_idx);
    const Time l = nb.hasPred ? t_x - future.timeOf(nb.pred) : bigTime;
    const Time f = nb.hasSucc ? future.timeOf(nb.succ) - t_x : bigTime;

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
                                  std::size_t next_idx)
{
    const Energy penalty =
        std::max(computePenalty(block.disk, next_idx), theta);
    const Handle h =
        evictOrder.push(EvictKey{penalty, next_idx, block.packed()});
    const bool inserted = handleOf.emplace(block.packed(), h).second;
    PACACHE_ASSERT(inserted, "OPG double insert of resident block");
    if (next_idx != F::kNever) {
        const bool fresh =
            residentByNext[block.disk].insert(next_idx, h);
        PACACHE_ASSERT(fresh, "OPG next-use index collision");
    }
}

template <typename F>
typename BasicOpgPolicy<F>::EvictKey
BasicOpgPolicy<F>::eraseResident(const BlockId &block)
{
    Handle *hp = handleOf.find(block.packed());
    PACACHE_ASSERT(hp, "OPG removal of unknown block");
    const Handle h = *hp;
    const EvictKey key = evictOrder.key(h);
    handleOf.erase(block.packed());
    if (key.nextIdx != F::kNever) {
        const bool erased =
            residentByNext[block.disk].erase(key.nextIdx);
        PACACHE_ASSERT(erased, "OPG residentByNext out of sync");
    }
    evictOrder.erase(h);
    return key;
}

template <typename F>
void
BasicOpgPolicy<F>::repriceGap(DiskId disk, std::size_t lo, bool has_lo,
                              std::size_t hi, bool has_hi)
{
    // Every resident with next access inside (lo, hi) shares the same
    // leader (lo) and follower (hi) — no per-block detMiss queries.
    const Time t_lo = has_lo ? future.timeOf(lo) : 0;
    const Time t_hi = has_hi ? future.timeOf(hi) : 0;
    const std::size_t hi_key = has_hi ? hi : F::kNever;
    // A missing end always prices as the cached E(bigTime), exactly
    // what computePenalty substitutes. The whole-gap term is NOT
    // hoisted as E(t_hi - t_lo) even though l + f is mathematically
    // the gap width: FP addition is not associative, so
    // (t_x - t_lo) + (t_hi - t_x) can round to a different double
    // than t_hi - t_lo, and the penalty must stay bit-identical to
    // the per-block form computePenalty (and the reference policy)
    // evaluates.
    residentByNext[disk].forEachInRange(
        lo, hi_key, [&](std::size_t next_idx, Handle h) {
            const Time t_x = future.timeOf(next_idx);
            const Time l = has_lo ? t_x - t_lo : bigTime;
            const Time f = has_hi ? t_hi - t_x : bigTime;
            const Energy e_l = has_lo ? idleEnergy(l) : eBig;
            const Energy e_f = has_hi ? idleEnergy(f) : eBig;
            const Energy penalty = e_l + e_f - idleEnergy(l + f);
            const Energy fresh =
                std::max(std::max<Energy>(penalty, 0.0), theta);
            const EvictKey &key = evictOrder.key(h);
            if (fresh == key.penalty)
                return;
            evictOrder.update(h, EvictKey{fresh, next_idx, key.block});
        });
}

template <typename F>
void
BasicOpgPolicy<F>::detInsert(DiskId disk, std::size_t idx)
{
    typename DetSet::Neighbors nb;
    const bool fresh = detMiss[disk].insertWithNeighbors(idx, nb);
    PACACHE_ASSERT(fresh, "duplicate deterministic miss");
    // idx split its gap in two: residents below idx now follow it,
    // residents above now lead from it.
    repriceGap(disk, nb.hasPred ? nb.pred : 0, nb.hasPred, idx, true);
    repriceGap(disk, idx, true, nb.hasSucc ? nb.succ : 0, nb.hasSucc);
}

template <typename F>
void
BasicOpgPolicy<F>::detErase(DiskId disk, std::size_t idx)
{
    typename DetSet::Neighbors nb;
    const bool was = detMiss[disk].eraseWithNeighbors(idx, nb);
    PACACHE_ASSERT(was, "miss not in deterministic-miss set");
    // idx's two gaps merged into one spanning (pred, succ).
    repriceGap(disk, nb.hasPred ? nb.pred : 0, nb.hasPred,
               nb.hasSucc ? nb.succ : 0, nb.hasSucc);
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
    const std::size_t next = future.nextUse(idx);
    if (!hit) {
        insertResident(block, next);
        return;
    }
    // Hit: the block stays resident, only its next access (and hence
    // its penalty) moves — update the heap key in place and re-slot
    // the next-use index entry. The hit itself is the block's
    // recorded next access, so taking idx out of the next-use index
    // yields the heap handle with no block-keyed hash probe.
    Handle h{};
    const bool unindexed = residentByNext[block.disk].take(idx, h);
    PACACHE_ASSERT(unindexed, "OPG hit on unindexed block");
    PACACHE_ASSERT(evictOrder.key(h).nextIdx == idx,
                   "stale next-use index on hit");
    const Energy penalty =
        std::max(computePenalty(block.disk, next), theta);
    evictOrder.update(h, EvictKey{penalty, next, block.packed()});
    if (next != F::kNever) {
        const bool fresh = residentByNext[block.disk].insert(next, h);
        PACACHE_ASSERT(fresh, "OPG next-use index collision");
    }
}

template <typename F>
void
BasicOpgPolicy<F>::onRemove(const BlockId &block)
{
    // External removal behaves like an eviction: the block's next
    // reference becomes a deterministic miss.
    const EvictKey key = eraseResident(block);
    if (key.nextIdx != F::kNever)
        detInsert(block.disk, key.nextIdx);
}

template <typename F>
BlockId
BasicOpgPolicy<F>::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!evictOrder.empty(), "OPG evict on empty cache");
    // The victim is the heap top: no handle lookup needed, and pop()
    // is cheaper than erase(handle) from an arbitrary slot.
    const Handle h = evictOrder.topHandle();
    const EvictKey key = evictOrder.key(h);
    const BlockId victim = BlockId::fromPacked(key.block);
    const bool known = handleOf.erase(key.block);
    PACACHE_ASSERT(known, "OPG evicting unknown block");
    if (key.nextIdx != F::kNever) {
        const bool erased =
            residentByNext[victim.disk].erase(key.nextIdx);
        PACACHE_ASSERT(erased, "OPG residentByNext out of sync");
    }
    evictOrder.pop();
    if (key.nextIdx != F::kNever)
        detInsert(victim.disk, key.nextIdx);
    return victim;
}

template <typename F>
Energy
BasicOpgPolicy<F>::penaltyOf(const BlockId &block) const
{
    const Handle *hp = handleOf.find(block.packed());
    PACACHE_ASSERT(hp, "penaltyOf unknown block");
    return evictOrder.key(*hp).penalty;
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
    // Cheap size-drift invariants, always on.
    PACACHE_ASSERT(evictOrder.size() == handleOf.size(),
                   "evict order / handle index size drift");
    std::size_t indexed = 0;
    for (const auto &byNext : residentByNext)
        indexed += byNext.size();
    PACACHE_ASSERT(indexed <= handleOf.size(),
                   "next-use index size drift");
    if (!full)
        return;

    // Full cross-check: recompute every penalty from scratch and
    // verify every index entry against the incremental bookkeeping.
    evictOrder.validate();
    for (const auto &s : detMiss)
        s.checkInvariants();
    std::size_t finite = 0;
    handleOf.forEach([&](std::uint64_t packed, Handle h) {
        const EvictKey &key = evictOrder.key(h);
        PACACHE_ASSERT(key.block == packed,
                       "victim-heap handle points at wrong block");
        const BlockId block = BlockId::fromPacked(packed);
        const Energy freshPenalty =
            std::max(computePenalty(block.disk, key.nextIdx), theta);
        PACACHE_ASSERT(freshPenalty == key.penalty,
                       "stale penalty for disk ", block.disk,
                       " block ", block.block, ": cached ",
                       key.penalty, " fresh ", freshPenalty);
        if (key.nextIdx == F::kNever)
            return;
        ++finite;
        const Handle *indexedHandle =
            residentByNext[block.disk].find(key.nextIdx);
        PACACHE_ASSERT(indexedHandle && *indexedHandle == h,
                       "missing next-use index entry");
    });
    PACACHE_ASSERT(indexed == finite,
                   "next-use index holds stale entries");
}

template class BasicOpgPolicy<FutureKnowledge>;
template class BasicOpgPolicy<WindowedFuture>;

} // namespace pacache
