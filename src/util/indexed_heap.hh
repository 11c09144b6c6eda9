/**
 * @file
 * IndexedHeap — an addressable d-ary (4-ary) binary-comparison heap
 * for the off-line oracle hot paths (OPG's penalty order, Belady's
 * next-use order).
 *
 * Design, chosen for the access pattern of oracle replay (one victim
 * pop per miss, plus a burst of key updates every time a
 * deterministic miss enters or leaves a gap):
 *
 *  - push() returns a stable Handle that survives every subsequent
 *    operation until that element is erased; callers store the handle
 *    in their block index and get O(log n) update-key without the
 *    erase+insert round trip (and double rebalance) a std::set
 *    forces;
 *  - 4-ary layout: the sift loops touch one cache line per level and
 *    the tree is half as deep as a binary heap, which is where a heap
 *    beats a red-black tree on wide fan-out workloads;
 *  - storage is two flat vectors (slots + heap order), zero per-node
 *    allocation; erased slots are threaded onto a free list through
 *    their position field, so steady-state churn never allocates
 *    (the event-queue slab pattern).
 *
 * The comparator orders the *minimum* to the top. Keys need not be
 * unique for correctness, but deterministic victim selection requires
 * the comparator to induce a total order (callers embed the block id
 * in the key, exactly like the std::set implementations replaced).
 */

#ifndef PACACHE_UTIL_INDEXED_HEAP_HH
#define PACACHE_UTIL_INDEXED_HEAP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace pacache
{

/** Addressable 4-ary min-heap; see the file comment for the contract. */
template <typename Key, typename Compare = std::less<Key>>
class IndexedHeap
{
  public:
    using Handle = std::uint32_t;

    explicit IndexedHeap(Compare cmp = Compare{}) : less(std::move(cmp)) {}

    std::size_t size() const { return order.size(); }
    bool empty() const { return order.empty(); }

    void
    clear()
    {
        order.clear();
        slots.clear();
        freeHead = kNone;
    }

    void
    reserve(std::size_t n)
    {
        order.reserve(n);
        slots.reserve(n);
    }

    /** Insert a key; the returned handle is stable until erase/pop. */
    Handle
    push(Key key)
    {
        Handle h;
        if (freeHead != kNone) {
            h = freeHead;
            freeHead = slots[h].pos;
            slots[h].key = std::move(key);
        } else {
            h = static_cast<Handle>(slots.size());
            slots.push_back(Slot{std::move(key), 0});
        }
        slots[h].pos = static_cast<std::uint32_t>(order.size());
        order.push_back(h);
        siftUp(slots[h].pos);
        return h;
    }

    /** The minimum key (heap must be non-empty). */
    const Key &
    top() const
    {
        PACACHE_ASSERT(!order.empty(), "top() on empty IndexedHeap");
        return slots[order[0]].key;
    }

    /** Handle of the minimum element (heap must be non-empty). */
    Handle
    topHandle() const
    {
        PACACHE_ASSERT(!order.empty(), "topHandle() on empty IndexedHeap");
        return order[0];
    }

    /** Key currently stored under a live handle. */
    const Key &key(Handle h) const { return slots[h].key; }

    /** Remove the minimum element. */
    void
    pop()
    {
        PACACHE_ASSERT(!order.empty(), "pop() on empty IndexedHeap");
        erase(order[0]);
    }

    /** Remove the element behind a live handle. */
    void
    erase(Handle h)
    {
        const std::uint32_t pos = slots[h].pos;
        const Handle last = order.back();
        order.pop_back();
        if (pos < order.size()) {
            order[pos] = last;
            slots[last].pos = pos;
            if (!siftUp(pos))
                siftDown(pos);
        }
        slots[h].pos = freeHead; // thread onto the free list
        freeHead = h;
    }

    /** Replace the key behind a live handle and restore heap order. */
    void
    update(Handle h, Key key)
    {
        slots[h].key = std::move(key);
        const std::uint32_t pos = slots[h].pos;
        if (!siftUp(pos))
            siftDown(pos);
    }

    /** Visit every live element as fn(handle, key), in heap order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Handle h : order)
            fn(h, slots[h].key);
    }

    /**
     * Test hook: check position back-pointers and the heap property;
     * panics on violation. O(n).
     */
    void
    validate() const
    {
        for (std::uint32_t i = 0; i < order.size(); ++i) {
            PACACHE_ASSERT(slots[order[i]].pos == i,
                           "IndexedHeap position back-pointer drift");
            if (i > 0) {
                const std::uint32_t parent = (i - 1) / kArity;
                PACACHE_ASSERT(
                    !less(slots[order[i]].key, slots[order[parent]].key),
                    "IndexedHeap property violated at index ", i);
            }
        }
    }

  private:
    static constexpr std::uint32_t kArity = 4;
    static constexpr Handle kNone = static_cast<Handle>(-1);

    struct Slot
    {
        Key key;
        std::uint32_t pos; //!< index into order; next-free link when dead
    };

    /** @return true if the element moved (so siftDown can be skipped). */
    bool
    siftUp(std::uint32_t pos)
    {
        const Handle h = order[pos];
        const std::uint32_t start = pos;
        while (pos > 0) {
            const std::uint32_t parent = (pos - 1) / kArity;
            if (!less(slots[h].key, slots[order[parent]].key))
                break;
            order[pos] = order[parent];
            slots[order[pos]].pos = pos;
            pos = parent;
        }
        order[pos] = h;
        slots[h].pos = pos;
        return pos != start;
    }

    void
    siftDown(std::uint32_t pos)
    {
        const Handle h = order[pos];
        const std::uint32_t n = static_cast<std::uint32_t>(order.size());
        while (true) {
            const std::uint32_t first = pos * kArity + 1;
            if (first >= n)
                break;
            std::uint32_t best = first;
            const std::uint32_t end =
                first + kArity < n ? first + kArity : n;
            for (std::uint32_t c = first + 1; c < end; ++c) {
                if (less(slots[order[c]].key, slots[order[best]].key))
                    best = c;
            }
            if (!less(slots[order[best]].key, slots[h].key))
                break;
            order[pos] = order[best];
            slots[order[pos]].pos = pos;
            pos = best;
        }
        order[pos] = h;
        slots[h].pos = pos;
    }

    std::vector<Slot> slots;
    std::vector<Handle> order;
    Handle freeHead = kNone;
    [[no_unique_address]] Compare less{};
};

} // namespace pacache

#endif // PACACHE_UTIL_INDEXED_HEAP_HH
