/**
 * @file
 * The storage cache: block-granular, demand-filled, with pluggable
 * replacement (paper's "CacheSim"). Tracks per-block dirty and
 * "logged" flags (the latter for the WTDU write policy) and per-disk
 * dirty and logged sets so write policies can flush efficiently.
 *
 * Every resident block holds a dense slot in [0, capacity) (the slot
 * contract in cache/policy.hh). One hash probe per access maps the
 * block to its slot; the slot indexes everything else: the block's
 * flags here, and the replacement policy's own order.
 */

#ifndef PACACHE_CACHE_CACHE_HH
#define PACACHE_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/policy.hh"
#include "sim/types.hh"
#include "util/flat_map.hh"
#include "util/seen_filter.hh"

namespace pacache
{

namespace obs
{
class SimObserver;
}

/** Outcome of one cache access. */
struct CacheResult
{
    bool hit = false;
    bool coldMiss = false;    //!< miss on a never-before-seen block
    bool evicted = false;     //!< an eviction was needed
    BlockId victim;           //!< valid when evicted
    bool victimDirty = false; //!< victim needed a write-back
    bool victimLogged = false; //!< victim held only-in-log data (WTDU)
};

/** Aggregate cache counters. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    //! First-ever accesses to a block (compulsory misses; exact, not
    //! Bloom). A prefetch-hidden first access still counts.
    uint64_t coldMisses = 0;
    uint64_t prefetchInserts = 0; //!< blocks brought in speculatively

    double
    hitRatio() const
    {
        return accesses ? static_cast<double>(hits) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** Fixed-capacity block cache with pluggable replacement. */
class Cache
{
  public:
    /**
     * @param capacity_blocks  cache size in blocks (> 0); a capacity
     *                         beyond the 32-bit slot index is fatal
     * @param policy           replacement policy (not owned)
     */
    Cache(std::size_t capacity_blocks, ReplacementPolicy &policy);

    /**
     * Access @p block at time @p now with stream index @p idx.
     * On a miss the block is brought in, evicting if necessary.
     * Newly inserted blocks are clean and unlogged.
     */
    CacheResult access(const BlockId &block, Time now, std::size_t idx);

    /**
     * Insert a block without a demand access (prefetch): no hit/miss
     * counters move, the policy sees a miss-style insertion, and an
     * eviction may be needed. No-op (hit=true result) if already
     * resident.
     */
    CacheResult insert(const BlockId &block, Time now, std::size_t idx);

    bool contains(const BlockId &block) const
    {
        return resident.contains(block.packed());
    }

    /** Mark a resident block dirty (write-back family). */
    void markDirty(const BlockId &block);

    /** Clear a resident block's dirty flag (after a flush). */
    void markClean(const BlockId &block);

    bool isDirty(const BlockId &block) const;

    /** Mark a resident block as logged (WTDU). */
    void markLogged(const BlockId &block);

    /** Clear a resident block's logged flag (after a log flush). */
    void clearLogged(const BlockId &block);

    bool isLogged(const BlockId &block) const;

    /** All dirty blocks of a disk (unordered). */
    std::vector<BlockId> dirtyBlocksOf(DiskId disk) const;

    /** All logged blocks of a disk (unordered). */
    std::vector<BlockId> loggedBlocksOf(DiskId disk) const;

    /** Number of dirty blocks of a disk. */
    std::size_t dirtyCount(DiskId disk) const;

    std::size_t size() const { return resident.size(); }
    std::size_t capacity() const { return capacityBlocks; }

    const CacheStats &stats() const { return counters; }

    ReplacementPolicy &policy() { return *repl; }

    /** Attach an observability fan-out (null to detach). */
    void setObserver(obs::SimObserver *observer) { obs = observer; }

  private:
    //! position of a slot that is in no per-disk set
    static constexpr uint32_t kNotInSet = UINT32_MAX;

    /**
     * One resident block: its packed id, and its position in its
     * disk's dirty and logged slot vectors (kNotInSet = clean or
     * unlogged). Keeping the positions lets a set drop any member in
     * O(1) by swapping the last member into its place.
     */
    struct Entry
    {
        uint64_t key = 0;
        uint32_t dirtyPos = kNotInSet;
        uint32_t loggedPos = kNotInSet;
    };

    /** Per-disk slot sets (dirty or logged), indexed by disk. */
    using SlotSets = std::vector<std::vector<CacheSlot>>;

    /** Slot of a resident block; panics with @p what otherwise. */
    CacheSlot slotOf(const BlockId &block, const char *what) const;

    /** Add @p slot to @p disk's set, recording its position. */
    void addTo(SlotSets &sets, uint32_t Entry::*pos, DiskId disk,
               CacheSlot slot);

    /** Drop @p slot from @p disk's set by swap-remove. */
    void removeFrom(SlotSets &sets, uint32_t Entry::*pos, DiskId disk,
                    CacheSlot slot);

    std::vector<BlockId> blocksIn(const SlotSets &sets, DiskId disk) const;

    /** Shared miss/prefetch insertion path (evict + insert). */
    void bringIn(const BlockId &block, Time now, std::size_t idx,
                 CacheResult &result);

    std::size_t capacityBlocks;
    ReplacementPolicy *repl;
    /**
     * Residency: packed 64-bit block id -> slot. 16-byte table slots
     * keep the table inside L1 at fig6 cache sizes, and the
     * per-access probe hashes one word instead of a struct.
     */
    FlatMap<uint64_t, CacheSlot> resident;
    /** Per slot; grows with the resident count, up to capacity. */
    std::vector<Entry> entries;
    SlotSets dirtySlots;
    SlotSets loggedSlots;

    /**
     * Exact cold-miss detection, probed once per miss. Block numbers
     * below kSeenBitmapLimit (every simulated workload) are answered
     * by a per-disk grow-on-demand bitmap — one direct bit test, no
     * hashing. Sparse ids beyond the limit (raw sector addresses from
     * real traces) go to the budgeted paged-bitmap tier: resident
     * memory is capped at SparseSeenSet::kDefaultBudget with overflow
     * pages spilled to disk, instead of a hash set growing with every
     * unique block. Same exact first-ever-seen answers either way.
     */
    static constexpr BlockNum kSeenBitmapLimit = BlockNum{1} << 22;
    bool recordFirstSeen(const BlockId &block);
    std::vector<std::vector<uint64_t>> seenBits;
    SparseSeenSet everSeenSparse;
    CacheStats counters;
    obs::SimObserver *obs = nullptr; //!< null = no instrumentation
};

} // namespace pacache

#endif // PACACHE_CACHE_CACHE_HH
