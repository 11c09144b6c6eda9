/**
 * @file
 * OrderedSet — a chunked sorted-vector ordered set/map for the
 * off-line oracle hot paths (OPG's deterministic-miss sets and its
 * resident-by-next-access index), with an optional spill tier that
 * bounds its resident footprint.
 *
 * Oracle replay hammers these containers with three queries:
 * predecessor/successor around a probe key (gap pricing), ordered
 * range scans (gap-scoped repricing), and steady insert/erase churn.
 * A node-based std::set answers each with O(log n) *dependent* cache
 * misses; this container instead keeps elements in sorted chunks of
 * at most kSplit contiguous keys:
 *
 *  - locate = one binary search over chunk maxima + one binary search
 *    inside a 2 KiB chunk: two cache-line streams instead of a
 *    pointer chase per level;
 *  - insert/erase = a memmove of whichever side of the position is
 *    shorter (each chunk keeps a dead prefix before `start`, so
 *    erasing near the front shifts the short prefix, not the tail —
 *    OPG's deterministic-miss sets always erase their minimum, which
 *    this turns from a 2 KiB memmove into an O(1) bump of `start`);
 *  - neighbors() answers predecessor, successor, and membership in a
 *    single locate, which is the exact shape of OPG's penalty query.
 *
 * The optional Mapped parameter turns the set into an ordered map
 * with a parallel value array per chunk (used for next-index → heap
 * handle); Mapped = void stores no values. Keys must be
 * less-comparable and are kept unique; keys and values must be
 * trivially copyable (spilled chunks are memcpy'd through pool
 * slots).
 *
 * Spill tier. A set lives purely in RAM until attach(pool). From then
 * on each chunk is one page of a shared SpillPool: when the pool's
 * byte budget overflows, the pool asks the set to spill its coldest
 * chunks, whose live keys (and values) are written to a fixed-size
 * slot of the pool's unlinked spill file and whose arrays go to a
 * spare list; the next touch reads them back with one pread. The
 * chunk maxima stay resident and a spilled chunk keeps its minimum
 * in its header, so the locate, cross-chunk neighbors() answers, and
 * the range-scan cut-off never fault a neighbor in. Spilling moves
 * bytes, never values: an attached set answers every query exactly
 * as an unattached one would. The spill bookkeeping (pool token,
 * slot, dirty bit, minimum) sits in the chunk itself and is only read
 * when a pool is attached, so the unattached path keeps its direct
 * chunks[ci] layout.
 *
 * Attached-set contract: query methods stay const but may fault
 * chunks in (and, through the pool, push other chunks out); a pointer
 * returned by find() is valid only until the next operation on any
 * container sharing the pool; range visitors must not mutate
 * pool-sharing containers; the pool must outlive the set, and an
 * attached set must not move (the pool holds its address).
 */

#ifndef PACACHE_UTIL_ORDERED_SET_HH
#define PACACHE_UTIL_ORDERED_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/spill_pool.hh"

namespace pacache
{

namespace detail
{
struct NoMapped
{
    friend bool operator==(const NoMapped &, const NoMapped &) = default;
};
} // namespace detail

/** Chunked sorted-vector ordered set/map; see the file comment. */
template <typename Key, typename Mapped = void>
class OrderedSet final : public SpillClient
{
    static constexpr bool kHasMapped = !std::is_void_v<Mapped>;
    using Value =
        std::conditional_t<kHasMapped, Mapped, detail::NoMapped>;
    static_assert(std::is_trivially_copyable_v<Key> &&
                      std::is_trivially_copyable_v<Value>,
                  "spilled chunks are memcpy'd through pool slots");

  public:
    /** Predecessor/successor/membership answered by one locate. */
    struct Neighbors
    {
        bool hasPred = false;
        bool hasSucc = false;
        bool present = false;
        Key pred{}; //!< largest key < probe (valid if hasPred)
        Key succ{}; //!< smallest key > probe (valid if hasSucc)
    };

    OrderedSet() = default;

    ~OrderedSet() override
    {
        if (pool)
            clear();
    }

    OrderedSet(const OrderedSet &) = delete;
    OrderedSet &operator=(const OrderedSet &) = delete;

    /** Only unattached sets move (vector growth during setup). */
    OrderedSet(OrderedSet &&other) noexcept
        : chunks(std::move(other.chunks)),
          maxes(std::move(other.maxes)),
          count(std::exchange(other.count, 0))
    {
        PACACHE_ASSERT(other.pool == nullptr,
                       "cannot move an attached OrderedSet");
    }

    /** Page this (empty) set's chunks through @p p from now on. */
    void
    attach(SpillPool &p)
    {
        PACACHE_ASSERT(count == 0, "attach of a populated OrderedSet");
        pool = &p;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    /** Spilled chunks read back so far (attached sets only). */
    std::uint64_t faults() const { return faulted; }

    /** Drop all elements; an attached set returns its pages and slots. */
    void
    clear()
    {
        if (pool) {
            for (const Chunk &c : chunks)
                returnToPool(c);
        }
        chunks.clear();
        maxes.clear();
        count = 0;
    }

    /** Insert a key (set form). @return false if already present. */
    bool
    insert(const Key &k)
        requires(!kHasMapped)
    {
        return insertImpl(k, Value{});
    }

    /** Insert a key → value pair. @return false if key present. */
    bool
    insert(const Key &k, Value v)
        requires(kHasMapped)
    {
        return insertImpl(k, std::move(v));
    }

    /** @return true if the key was present and is now removed. */
    bool
    erase(const Key &k)
    {
        const std::size_t ci = chunkFor(k);
        if (ci == chunks.size())
            return false;
        makeResident(ci);
        Chunk &c = chunks[ci];
        const std::size_t pos = lowerBound(c, k);
        if (pos == c.keys.size() || c.keys[pos] != k)
            return false;
        eraseAt(ci, pos);
        return true;
    }

    /**
     * Erase @p k and report its neighbors (as they were while k was
     * still present) in the same locate — the shape of OPG's
     * deterministic-miss retirement, which needs the merged gap's
     * endpoints anyway. @return true if k was present (and erased).
     */
    bool
    eraseWithNeighbors(const Key &k, Neighbors &nb)
    {
        nb = Neighbors{};
        const std::size_t ci = chunkFor(k);
        if (ci == chunks.size()) {
            if (!chunks.empty()) {
                nb.hasPred = true;
                nb.pred = maxes.back();
            }
            return false;
        }
        makeResident(ci);
        const std::size_t pos = fillNeighbors(ci, k, nb);
        if (!nb.present)
            return false;
        eraseAt(ci, pos);
        return true;
    }

    /**
     * Insert @p k and report the neighbors it landed between in the
     * same locate — the shape of OPG's eviction bookkeeping, which
     * reprices the two sub-gaps around the new deterministic miss.
     * @return true if inserted (false if k was already present).
     */
    bool
    insertWithNeighbors(const Key &k, Neighbors &nb)
        requires(!kHasMapped)
    {
        nb = Neighbors{};
        if (chunks.empty()) {
            insertImpl(k, Value{});
            return true;
        }
        std::size_t ci = chunkFor(k);
        if (ci == chunks.size()) {
            nb.hasPred = true;
            nb.pred = maxes.back();
            --ci; // k beyond every chunk: append into the last one
            makeResident(ci);
            insertAt(ci, chunks[ci].keys.size(), k, Value{});
            return true;
        }
        makeResident(ci);
        const std::size_t pos = fillNeighbors(ci, k, nb);
        if (nb.present)
            return false;
        insertAt(ci, pos, k, Value{});
        return true;
    }

    bool
    contains(const Key &k) const
    {
        const std::size_t ci = chunkFor(k);
        if (ci == chunks.size())
            return false;
        makeResident(ci);
        const Chunk &c = chunks[ci];
        const std::size_t pos = lowerBound(c, k);
        return pos < c.keys.size() && c.keys[pos] == k;
    }

    /** @return pointer to the mapped value, or null if absent. */
    const Mapped *
    find(const Key &k) const
        requires(kHasMapped)
    {
        const std::size_t ci = chunkFor(k);
        if (ci == chunks.size())
            return nullptr;
        makeResident(ci);
        const Chunk &c = chunks[ci];
        const std::size_t pos = lowerBound(c, k);
        if (pos == c.keys.size() || c.keys[pos] != k)
            return nullptr;
        return &c.vals[pos];
    }

    /**
     * Erase @p k and move its mapped value into @p out — a find +
     * erase in a single locate. @return true if k was present.
     */
    template <typename M = Mapped>
    bool
    take(const Key &k, M &out)
        requires(kHasMapped && std::is_same_v<M, Mapped>)
    {
        const std::size_t ci = chunkFor(k);
        if (ci == chunks.size())
            return false;
        makeResident(ci);
        Chunk &c = chunks[ci];
        const std::size_t pos = lowerBound(c, k);
        if (pos == c.keys.size() || c.keys[pos] != k)
            return false;
        out = std::move(c.vals[pos]);
        eraseAt(ci, pos);
        return true;
    }

    /** Predecessor, successor, and membership of @p k in one locate. */
    Neighbors
    neighbors(const Key &k) const
    {
        Neighbors nb;
        if (chunks.empty())
            return nb;
        const std::size_t ci = chunkFor(k);
        if (ci == chunks.size()) {
            nb.hasPred = true;
            nb.pred = maxes.back();
            return nb;
        }
        makeResident(ci);
        fillNeighbors(ci, k, nb);
        return nb;
    }

    /**
     * Visit every key with lo < key < hi in ascending order;
     * fn(key) for sets, fn(key, mapped) for maps. The container must
     * not be mutated during the visit.
     */
    template <typename Fn>
    void
    forEachInRange(const Key &lo, const Key &hi, Fn &&fn) const
    {
        // First chunk that can hold a key > lo.
        std::size_t ci = firstChunkAbove(lo);
        for (bool leading = true; ci < chunks.size(); ++ci,
                                  leading = false) {
            // Chunk ranges ascend: a spilled chunk starting at or
            // past hi ends the scan without being faulted in.
            if (pool && !(lowest(chunks[ci]) < hi))
                return;
            makeResident(ci);
            const Chunk &c = chunks[ci];
            std::size_t pos = leading ? upperBound(c, lo) : c.start;
            for (; pos < c.keys.size(); ++pos) {
                if (!(c.keys[pos] < hi))
                    return;
                if constexpr (kHasMapped)
                    fn(c.keys[pos], c.vals[pos]);
                else
                    fn(c.keys[pos]);
            }
        }
    }

    /** Visit every element in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
            makeResident(ci);
            const Chunk &c = chunks[ci];
            for (std::size_t pos = c.start; pos < c.keys.size();
                 ++pos) {
                if constexpr (kHasMapped)
                    fn(c.keys[pos], c.vals[pos]);
                else
                    fn(c.keys[pos]);
            }
        }
    }

    /**
     * Test hook: verify chunk sortedness, inter-chunk ordering,
     * parallel-array sizes, and the element count (faulting every
     * chunk in); panics on drift.
     */
    void
    checkInvariants() const
    {
        std::size_t seen = 0;
        PACACHE_ASSERT(maxes.size() == chunks.size(),
                       "OrderedSet maxes array drift");
        for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
            makeResident(ci);
            const Chunk &c = chunks[ci];
            PACACHE_ASSERT(!pool || c.token != SpillPool::kNoToken,
                           "OrderedSet chunk not resident after fault");
            PACACHE_ASSERT(c.start < c.keys.size(),
                           "empty OrderedSet chunk");
            PACACHE_ASSERT(c.start < kSplit,
                           "uncompacted OrderedSet dead prefix");
            PACACHE_ASSERT(maxes[ci] == c.keys.back(),
                           "OrderedSet stale chunk maximum");
            PACACHE_ASSERT(c.keys.size() - c.start <= kSplit,
                           "oversized OrderedSet chunk");
            if constexpr (kHasMapped)
                PACACHE_ASSERT(c.vals.size() == c.keys.size(),
                               "OrderedSet parallel-array drift");
            for (std::size_t i = c.start + 1; i < c.keys.size(); ++i)
                PACACHE_ASSERT(c.keys[i - 1] < c.keys[i],
                               "OrderedSet chunk not strictly sorted");
            // maxes, not the previous chunk: faulting this one in may
            // have spilled it.
            if (ci > 0)
                PACACHE_ASSERT(maxes[ci - 1] < c.front(),
                               "OrderedSet chunks out of order");
            seen += c.keys.size() - c.start;
        }
        PACACHE_ASSERT(seen == count, "OrderedSet count drift");
    }

    /** SpillPool callback: write chunk @p page out, recycle its arrays. */
    void
    spillPage(std::uint32_t page) override
    {
        Chunk &c = chunks[page];
        PACACHE_ASSERT(c.token != SpillPool::kNoToken,
                       "spill of a non-resident OrderedSet chunk");
        if (c.dirty || c.slot == SpillPool::kNoSlot) {
            if (c.slot == SpillPool::kNoSlot)
                c.slot = pool->allocSlot(slotBytes());
            writeSlot(c);
            c.dirty = false;
        }
        c.minKey = c.front();
        c.start = 0;
        c.token = SpillPool::kNoToken;
        recycle(c);
    }

  private:
    /** Chunk split threshold; 256 keys = 2 KiB of size_t per chunk. */
    static constexpr std::size_t kSplit = 256;
    static constexpr std::size_t kValBytes =
        kHasMapped ? sizeof(Value) : 0;

    struct Chunk
    {
        /** Sorted, unique in [start, size()); empty while spilled. */
        std::vector<Key> keys;
        [[no_unique_address]] std::conditional_t<
            kHasMapped, std::vector<Value>, detail::NoMapped>
            vals;
        std::size_t start = 0; //!< dead-prefix length

        // Spill tier, touched only while a pool is attached.
        bool dirty = false; //!< resident keys differ from the slot
        std::uint32_t token = SpillPool::kNoToken; //!< set if resident
        std::uint64_t slot = SpillPool::kNoSlot; //!< spill-file copy
        Key minKey{}; //!< lowest live key, kept while spilled

        const Key &front() const { return keys[start]; }
    };

    /** Resident cost charged to the pool budget per chunk. */
    static constexpr std::size_t
    chunkBytes()
    {
        return kSplit * (sizeof(Key) + kValBytes) + sizeof(Chunk);
    }

    /** Fixed spill-slot size: live-count header + full arrays. */
    static constexpr std::size_t
    slotBytes()
    {
        return sizeof(std::uint64_t) + kSplit * (sizeof(Key) + kValBytes);
    }

    /**
     * Branchless binary search: each step halves the range with a
     * conditional move instead of a 50/50-mispredicted compare, which
     * matters at kSplit-sized chunks probed with effectively random
     * keys. @return the first position in [first, first + n) whose
     * key fails @p before(key) — i.e. lower bound for before = (key
     * < k), upper bound for before = !(k < key).
     */
    template <typename Before>
    static const Key *
    search(const Key *first, std::size_t n, Before before)
    {
        while (n > 1) {
            const std::size_t half = n / 2;
            first += before(first[half - 1]) ? half : 0;
            n -= half;
        }
        return first + (n == 1 && before(*first) ? 1 : 0);
    }

    /** First live position with key >= k (absolute index). */
    static std::size_t
    lowerBound(const Chunk &c, const Key &k)
    {
        const Key *base = c.keys.data();
        return static_cast<std::size_t>(
            search(base + c.start, c.keys.size() - c.start,
                   [&](const Key &x) { return x < k; }) -
            base);
    }

    /** First live position with key > k (absolute index). */
    static std::size_t
    upperBound(const Chunk &c, const Key &k)
    {
        const Key *base = c.keys.data();
        return static_cast<std::size_t>(
            search(base + c.start, c.keys.size() - c.start,
                   [&](const Key &x) { return !(k < x); }) -
            base);
    }

    /** Lowest live key of a chunk, resident or spilled. */
    static const Key &
    lowest(const Chunk &c)
    {
        return c.keys.empty() ? c.minKey : c.front();
    }

    /** Drop the dead prefix; amortized O(1) per front erase. */
    static void
    compact(Chunk &c)
    {
        c.keys.erase(c.keys.begin(), c.keys.begin() + c.start);
        if constexpr (kHasMapped)
            c.vals.erase(c.vals.begin(), c.vals.begin() + c.start);
        c.start = 0;
    }

    /** Index of the first chunk with back() >= k (chunks.size() if none). */
    std::size_t
    chunkFor(const Key &k) const
    {
        // maxes mirrors each chunk's largest key contiguously, so the
        // search streams 1-2 cache lines instead of striding chunks.
        return static_cast<std::size_t>(
            search(maxes.data(), maxes.size(),
                   [&](const Key &x) { return x < k; }) -
            maxes.data());
    }

    /** Index of the first chunk with back() > k (chunks.size() if none). */
    std::size_t
    firstChunkAbove(const Key &k) const
    {
        return static_cast<std::size_t>(
            search(maxes.data(), maxes.size(),
                   [&](const Key &x) { return !(k < x); }) -
            maxes.data());
    }

    /**
     * Make chunk @p ci resident before it is read or written; a no-op
     * unless attached. Queries are logically const, so the fault's
     * physical mutation casts constness away here, in one place.
     */
    void
    makeResident(std::size_t ci) const
    {
        if (pool)
            const_cast<OrderedSet *>(this)->touchOrFault(ci);
    }

    /** Refresh a resident chunk's recency, or read a spilled one back. */
    void
    touchOrFault(std::size_t ci)
    {
        Chunk &c = chunks[ci];
        if (c.token != SpillPool::kNoToken) {
            pool->touch(c.token);
            return;
        }
        readSlot(c);
        c.dirty = false;
        ++faulted;
        enroll(ci);
    }

    /**
     * Register resident chunk @p ci with the pool. It is added pinned
     * so the enforcement sweep inside add() spills other pages, never
     * the one being handed out; it becomes evictable at the next add.
     */
    void
    enroll(std::size_t ci)
    {
        Chunk &c = chunks[ci];
        c.token = pool->add(this, static_cast<std::uint32_t>(ci),
                            chunkBytes(), true);
        pool->unpin(c.token);
    }

    /** Return a chunk's pool page and spill slot (it is being dropped). */
    void
    returnToPool(const Chunk &c)
    {
        if (c.token != SpillPool::kNoToken)
            pool->remove(c.token);
        if (c.slot != SpillPool::kNoSlot)
            pool->freeSlot(c.slot, slotBytes());
    }

    /** Move a chunk's (emptied) arrays to the spare list. */
    void
    recycle(Chunk &c)
    {
        c.keys.clear();
        if constexpr (kHasMapped)
            c.vals.clear();
        spares.emplace_back();
        std::swap(spares.back().keys, c.keys);
        if constexpr (kHasMapped)
            std::swap(spares.back().vals, c.vals);
    }

    /** Give an array-less chunk recycled (or full-size) arrays. */
    void
    reuse(Chunk &c)
    {
        if (spares.empty()) {
            c.keys.reserve(kSplit + 1);
            if constexpr (kHasMapped)
                c.vals.reserve(kSplit + 1);
            return;
        }
        std::swap(spares.back().keys, c.keys);
        if constexpr (kHasMapped)
            std::swap(spares.back().vals, c.vals);
        spares.pop_back();
    }

    /** Keep the pool's page ids equal to chunk indexes from @p first. */
    void
    renumberFrom(std::size_t first)
    {
        for (std::size_t ci = first; ci < chunks.size(); ++ci) {
            if (chunks[ci].token != SpillPool::kNoToken)
                pool->renumber(chunks[ci].token,
                               static_cast<std::uint32_t>(ci));
        }
    }

    bool
    insertImpl(const Key &k, Value v)
    {
        if (chunks.empty()) {
            chunks.emplace_back();
            chunks.back().keys.push_back(k);
            if constexpr (kHasMapped)
                chunks.back().vals.push_back(std::move(v));
            maxes.push_back(k);
            count = 1;
            if (pool)
                enroll(0);
            return true;
        }
        // Ascending-insert fast path: a key above every stored key
        // (bulk seeding in sorted order, monotone next-use indices)
        // appends to the last chunk with no locate and no shifting.
        if (maxes.back() < k) {
            const std::size_t last = chunks.size() - 1;
            makeResident(last);
            Chunk &c = chunks[last];
            c.keys.push_back(k);
            if constexpr (kHasMapped)
                c.vals.push_back(std::move(v));
            c.dirty = true;
            maxes[last] = k;
            ++count;
            if (c.keys.size() - c.start > kSplit)
                splitChunk(last);
            return true;
        }
        const std::size_t ci = chunkFor(k);
        makeResident(ci);
        const std::size_t pos = lowerBound(chunks[ci], k);
        if (pos < chunks[ci].keys.size() && chunks[ci].keys[pos] == k)
            return false;
        insertAt(ci, pos, k, std::move(v));
        return true;
    }

    /**
     * Fill @p nb for probe @p k against resident chunk @p ci (which
     * must satisfy back() >= k, so the locate lands strictly inside).
     * Answers that cross into an adjacent chunk come from maxes and
     * lowest(), never from a fault.
     * @return the absolute position of k's lower bound in the chunk.
     */
    std::size_t
    fillNeighbors(std::size_t ci, const Key &k, Neighbors &nb) const
    {
        const Chunk &c = chunks[ci];
        const std::size_t pos = lowerBound(c, k);
        nb.present = c.keys[pos] == k;
        if (pos > c.start) {
            nb.hasPred = true;
            nb.pred = c.keys[pos - 1];
        } else if (ci > 0) {
            nb.hasPred = true;
            nb.pred = maxes[ci - 1];
        }
        const std::size_t succ_pos = nb.present ? pos + 1 : pos;
        if (succ_pos < c.keys.size()) {
            nb.hasSucc = true;
            nb.succ = c.keys[succ_pos];
        } else if (ci + 1 < chunks.size()) {
            nb.hasSucc = true;
            nb.succ = lowest(chunks[ci + 1]);
        }
        return pos;
    }

    /** Insert @p k at (ci, pos), an already-located insertion point. */
    void
    insertAt(std::size_t ci, std::size_t pos, const Key &k, Value v)
    {
        Chunk &c = chunks[ci];
        // Reuse a dead-prefix slot when the left side is shorter:
        // shift [start, pos) down one instead of the tail up one.
        if (c.start > 0 && pos - c.start < c.keys.size() - pos) {
            std::move(c.keys.begin() + c.start, c.keys.begin() + pos,
                      c.keys.begin() + c.start - 1);
            c.keys[pos - 1] = k;
            if constexpr (kHasMapped) {
                std::move(c.vals.begin() + c.start,
                          c.vals.begin() + pos,
                          c.vals.begin() + c.start - 1);
                c.vals[pos - 1] = std::move(v);
            }
            --c.start;
        } else {
            c.keys.insert(c.keys.begin() + pos, k);
            if constexpr (kHasMapped)
                c.vals.insert(c.vals.begin() + pos, std::move(v));
        }
        c.dirty = true;
        if (maxes[ci] < k)
            maxes[ci] = k;
        ++count;
        if (c.keys.size() - c.start > kSplit)
            splitChunk(ci);
    }

    /** Erase the element at (ci, pos), an already-located position. */
    void
    eraseAt(std::size_t ci, std::size_t pos)
    {
        Chunk &c = chunks[ci];
        --count;
        if (c.keys.size() - c.start == 1) {
            if (pool) {
                returnToPool(c);
                recycle(c);
            }
            chunks.erase(chunks.begin() + ci);
            maxes.erase(maxes.begin() + ci);
            if (pool)
                renumberFrom(ci);
            return;
        }
        c.dirty = true;
        // Shift whichever side of pos is shorter. Erasing the chunk
        // minimum (OPG's deterministic-miss pattern) shifts nothing:
        // it just grows the dead prefix.
        if (pos - c.start < c.keys.size() - pos - 1) {
            std::move_backward(c.keys.begin() + c.start,
                               c.keys.begin() + pos,
                               c.keys.begin() + pos + 1);
            if constexpr (kHasMapped)
                std::move_backward(c.vals.begin() + c.start,
                                   c.vals.begin() + pos,
                                   c.vals.begin() + pos + 1);
            ++c.start;
            if (c.start >= kSplit)
                compact(c);
        } else {
            c.keys.erase(c.keys.begin() + pos);
            if constexpr (kHasMapped)
                c.vals.erase(c.vals.begin() + pos);
            maxes[ci] = c.keys.back();
        }
    }

    /** Split an over-full resident chunk; the new right half may spill. */
    void
    splitChunk(std::size_t ci)
    {
        compact(chunks[ci]);
        Chunk &c = chunks[ci];
        const std::size_t half = c.keys.size() / 2;
        Chunk right;
        if (pool)
            reuse(right);
        right.keys.assign(c.keys.begin() + half, c.keys.end());
        c.keys.resize(half);
        if constexpr (kHasMapped) {
            right.vals.assign(
                std::make_move_iterator(c.vals.begin() + half),
                std::make_move_iterator(c.vals.end()));
            c.vals.resize(half);
        }
        maxes[ci] = c.keys.back();
        maxes.insert(maxes.begin() + ci + 1, right.keys.back());
        chunks.insert(chunks.begin() + ci + 1, std::move(right));
        // Page ids must be current before add() can call spillPage().
        if (pool) {
            renumberFrom(ci + 2);
            enroll(ci + 1);
        }
    }

    /** Write a resident chunk's live entries to its slot. */
    void
    writeSlot(const Chunk &c)
    {
        scratch.assign(slotBytes(), 0);
        const std::uint64_t live = c.keys.size() - c.start;
        std::memcpy(scratch.data(), &live, sizeof(live));
        std::memcpy(scratch.data() + sizeof(std::uint64_t),
                    c.keys.data() + c.start, live * sizeof(Key));
        if constexpr (kHasMapped)
            std::memcpy(scratch.data() + sizeof(std::uint64_t) +
                            kSplit * sizeof(Key),
                        c.vals.data() + c.start,
                        live * sizeof(Value));
        pool->writeSlot(c.slot, scratch.data(), slotBytes());
    }

    /** Read a spilled chunk's entries back from its slot. */
    void
    readSlot(Chunk &c)
    {
        scratch.resize(slotBytes());
        pool->readSlot(c.slot, scratch.data(), slotBytes());
        std::uint64_t live = 0;
        std::memcpy(&live, scratch.data(), sizeof(live));
        PACACHE_ASSERT(live >= 1 && live <= kSplit,
                       "corrupt spill slot header");
        c.start = 0;
        reuse(c);
        c.keys.resize(static_cast<std::size_t>(live));
        std::memcpy(c.keys.data(),
                    scratch.data() + sizeof(std::uint64_t),
                    live * sizeof(Key));
        if constexpr (kHasMapped) {
            c.vals.resize(static_cast<std::size_t>(live));
            std::memcpy(c.vals.data(),
                        scratch.data() + sizeof(std::uint64_t) +
                            kSplit * sizeof(Key),
                        live * sizeof(Value));
        }
    }

    std::vector<Chunk> chunks;
    std::vector<Key> maxes; //!< largest key of chunks[i], even spilled
    std::size_t count = 0;

    SpillPool *pool = nullptr; //!< set by attach()
    std::uint64_t faulted = 0;
    std::vector<char> scratch; //!< slot staging buffer
    /**
     * Arrays of spilled and dropped chunks, reused by later faults
     * and splits (attached sets only): steady paging then allocates
     * nothing, and the arrays never outnumber the most chunks this
     * set ever held resident at once.
     */
    std::vector<Chunk> spares;
};

} // namespace pacache

#endif // PACACHE_UTIL_ORDERED_SET_HH
