/**
 * @file
 * OPG — the Off-line Power-aware Greedy replacement algorithm
 * (paper Section 3.2).
 *
 * OPG maintains, per disk, the set S of *deterministic misses*:
 * future accesses that are bound to miss no matter what the
 * replacement algorithm does from now on (initially every cold miss;
 * whenever a block is evicted, its next reference joins S; whenever
 * a deterministic miss is serviced it leaves S).
 *
 * For a resident block x whose next access is l seconds after its
 * *leader* (closest deterministic miss to the same disk before it)
 * and f seconds before its *follower* (closest after it), evicting x
 * turns one idle period of length l+f into two periods l and f, so
 * the energy penalty is
 *
 *      penalty(x) = E(l) + E(f) - E(l+f) >= 0,
 *
 * where E is the idle-period energy function of the underlying DPM:
 * the lower envelope E*(t) for Oracle DPM or the threshold-walk
 * energy for Practical DPM. OPG evicts the block with the smallest
 * penalty, breaking ties by the furthest next access.
 *
 * Penalties below the threshold theta are rounded up to theta, which
 * trades energy for miss ratio: theta = 0 is pure OPG and
 * theta -> infinity degrades exactly to Belady's MIN (all penalties
 * equal; ties broken by forward distance).
 *
 * Implementation (the oracle fast path; ReferenceOpgPolicy in
 * core/opg_ref.hh is the retained node-based original):
 *
 *  - per disk, S is a chunked sorted-vector OrderedSet of (index,
 *    time) entries ordered by index, whose neighbors() query answers
 *    leader/follower/membership in one locate and hands back both
 *    gap endpoints' times with them;
 *  - resident blocks with a finite next access live in a per-disk
 *    OrderedSet map from next-access index to (that access's time,
 *    victim-heap handle), so gap-scoped repricing is a contiguous
 *    range scan with no lookups at all (blocks that are never
 *    re-referenced have nothing to reprice and stay out of the
 *    index);
 *  - the victim order is an addressable 4-ary IndexedHeap keyed by
 *    (penalty, furthest next access, block); repricing updates keys
 *    in place through stable handles. It is also the only
 *    block-keyed record of the residents: a victim comes off its top
 *    and a hit reaches its entry through the next-use index, so no
 *    miss pays for a block -> handle hash map (onRemove(), which the
 *    cache never calls, scans the heap instead);
 *  - gap pricing inlines the power model's precomputed fast paths
 *    (flat line-table min-scan for Oracle, closed-form segment table
 *    for Practical), bit-identical to the legacy per-call scans.
 *
 * Every time OPG prices with is stored beside the index it belongs
 * to: the future provider returns it with nextUse() and with the cold
 * seeds, and it travels with the index into S and the next-use index.
 * The policy is a template over that provider F: FutureKnowledge
 * (materialized arrays; OpgPolicy, the classic fits-in-RAM fast path)
 * or WindowedFuture (exact out-of-core next-use streaming over a .pct
 * sidecar; WindowedOpgPolicy, fed by prepareWindowed() instead of
 * prepare()). Both instantiations live in opg.cc — the replay loops
 * are identical, only where nextUse() reads from differs.
 *
 * The per-disk sets and indexes live in RAM unless the constructor's
 * mem_budget is non-zero: then they all attach to one SpillPool of
 * that many bytes, and chunks beyond the budget overflow to an
 * unlinked spill file and fault back on touch (util/ordered_set.hh).
 * Spilling moves bytes, never values, so a budgeted replay is
 * bit-identical to an unbudgeted one — evictions, counters, and
 * energy all match.
 */

#ifndef PACACHE_CORE_OPG_HH
#define PACACHE_CORE_OPG_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/future_window.hh"
#include "cache/policy.hh"
#include "disk/power_model.hh"
#include "util/indexed_heap.hh"
#include "util/ordered_set.hh"
#include "util/spill_pool.hh"

namespace pacache
{

/** Which idle-period energy function prices the penalties. */
enum class DpmKind
{
    Oracle,    //!< lower envelope E*(t)
    Practical, //!< threshold-based DPM energy
};

/** The off-line power-aware greedy policy over future provider F. */
template <typename F>
class BasicOpgPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param pm          power model used to price idle periods
     * @param kind        which DPM the disks run (prices E)
     * @param theta       penalty floor in Joules (0 = pure OPG)
     * @param mem_budget  SpillPool budget in bytes for the oracle's
     *                    ordered state (0 = keep it all in RAM)
     */
    BasicOpgPolicy(const PowerModel &pm, DpmKind kind,
                   Energy theta = 0, std::size_t mem_budget = 0);

    const char *name() const override { return "OPG"; }

    void prepare(const std::vector<BlockAccess> &accesses) override;

    /**
     * Streaming counterpart of prepare(): adopt an already-built
     * windowed future (F = WindowedFuture only) whose cold seeds
     * initialize the deterministic-miss sets.
     */
    void prepareWindowed(F &&fut);

    void beforeMiss(const BlockId &block, Time now,
                    std::size_t idx) override;
    void onAccess(const BlockId &block, Time now, std::size_t idx,
                  bool hit) override;
    void onRemove(const BlockId &block) override;
    BlockId evict(Time now, std::size_t idx) override;
    bool supportsPrefetch() const override { return false; }
    bool isOffline() const override { return true; }
    bool streamReady() const override { return ready; }

    /** Energy penalty of a resident block (test hook; O(n) scan). */
    Energy penaltyOf(const BlockId &block) const;

    /** Number of deterministic misses currently tracked for a disk. */
    std::size_t deterministicMissCount(DiskId disk) const;

    /**
     * Full validation recomputes every resident penalty from scratch
     * (O(n * pricing) — oracle-sized). Debug/test builds default to
     * it; release builds default to the cheap size-drift invariants
     * so sanitizer CI does not pay oracle costs per call.
     */
#ifdef NDEBUG
    static constexpr bool kFullValidationDefault = false;
#else
    static constexpr bool kFullValidationDefault = true;
#endif

    /**
     * Test hook: check internal bookkeeping; panics when out of sync.
     * With @p full, recompute every resident block's penalty and
     * cross-check every index entry against the incremental state.
     */
    void validateInternalState(bool full = kFullValidationDefault) const;

  private:
    /**
     * Victim-ordering key: min penalty, then furthest next access.
     * The block rides along as its packed id — same tie-break order
     * as (disk, block), and the 24-byte key cuts heap sift traffic.
     */
    struct EvictKey
    {
        Energy penalty;
        std::size_t nextIdx;
        std::uint64_t block; //!< BlockId::packed()

        bool
        operator<(const EvictKey &o) const
        {
            if (penalty != o.penalty)
                return penalty < o.penalty;
            if (nextIdx != o.nextIdx)
                return nextIdx > o.nextIdx; // furthest first
            return block < o.block;
        }
    };

    using EvictHeap = IndexedHeap<EvictKey>;
    using Handle = typename EvictHeap::Handle;
    using DetSet = OrderedSet<FutureAccess>;

    /** A resident's next access: its time and the victim-heap handle. */
    struct NextEntry
    {
        Time time;
        Handle handle;
    };

    Energy
    idleEnergy(Time t) const
    {
        return dpmKind == DpmKind::Oracle ? pm->envelope(t)
                                          : pm->practicalEnergy(t);
    }
    Energy computePenalty(DiskId disk, FutureAccess next) const;

    /** Shared part of both prepares: sentinel, empty tables, ready. */
    void resetState(std::size_t num_disks, Time last);

    void insertResident(const BlockId &block, FutureAccess next);
    /**
     * Drop a leaving resident from the next-use index (the caller
     * drops it from the heap). @return its next access, with the time
     * the index stored.
     */
    FutureAccess unindex(const EvictKey &key);
    /** Heap handle of a resident block: an O(n) scan of the heap. */
    Handle findResident(const BlockId &block) const;
    /**
     * Re-price resident blocks with next access strictly between lo
     * and hi, which (when present) are known to be the gap's
     * deterministic misses — their leader and follower.
     */
    void repriceGap(DiskId disk, FutureAccess lo, bool has_lo,
                    FutureAccess hi, bool has_hi);
    void detInsert(DiskId disk, FutureAccess miss);
    void detErase(DiskId disk, std::size_t idx);

    const PowerModel *pm;
    DpmKind dpmKind;
    Energy theta;
    std::size_t memBudget; //!< SpillPool bytes (0 = no pool)

    F future;
    bool ready = false;
    Time bigTime = 0;  //!< stands in for "no leader/follower"
    Energy eBig = 0;   //!< cached idleEnergy(bigTime)

    /**
     * Declared before the sets: members destruct in reverse order, so
     * attached sets (whose destructors return pages and slots to the
     * pool) go first. Null when memBudget is 0.
     */
    std::unique_ptr<SpillPool> spillPool;
    std::vector<DetSet> detMiss; //!< per-disk S
    /** Per disk: finite next-access index -> time and heap handle. */
    std::vector<OrderedSet<std::size_t, NextEntry>> residentByNext;
    EvictHeap evictOrder; //!< every resident, keyed for eviction
};

// All instantiations are compiled once, in opg.cc, so the hot replay
// loops keep the exact same single-TU codegen the non-template policy
// had (micro_opg's 2.5x floor is sensitive to this).
extern template class BasicOpgPolicy<FutureKnowledge>;
extern template class BasicOpgPolicy<WindowedFuture>;

/** The classic materialized oracle. */
using OpgPolicy = BasicOpgPolicy<FutureKnowledge>;
/** The exact out-of-core oracle (streaming replay only). */
using WindowedOpgPolicy = BasicOpgPolicy<WindowedFuture>;

} // namespace pacache

#endif // PACACHE_CORE_OPG_HH
