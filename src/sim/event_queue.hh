/**
 * @file
 * Discrete-event simulation engine: a time-ordered event queue with
 * stable FIFO ordering among same-time events and O(1) cancellation
 * via event handles.
 *
 * The queue is a 4-ary min-heap on (time, sequence) — push and pop
 * are O(log n) with contiguous storage, against the node allocation
 * and pointer chasing of the previous std::map (EXPERIMENTS.md
 * records the difference); the arity of four halves the sift depth
 * of a binary heap and keeps each level's children in one cache
 * line. Heap entries are small PODs; callbacks live in a free-listed
 * slab indexed by the heap entry, so sift operations move plain
 * scalars and dispatching an event costs one array access — no
 * hashing, no per-event allocation. Cancellation is lazy: cancel()
 * releases the slot (the sequence number doubles as a generation tag)
 * and the stale heap entry is skipped when it surfaces; when stale
 * entries outnumber live ones the heap compacts in one linear pass,
 * so timer-churn workloads (DPM idle timers rearmed on every arrival)
 * stay O(1) amortized per cancel. The insertion sequence number
 * breaks ties between equal timestamps, preserving deterministic
 * FIFO semantics.
 *
 * The hot paths (schedule, dispatch, cancel) are defined inline here:
 * the simulator schedules an event per disk request, so the call
 * overhead of an out-of-line library function is measurable at the
 * micro level.
 */

#ifndef PACACHE_SIM_EVENT_QUEUE_HH
#define PACACHE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "util/logging.hh"

namespace pacache
{

/**
 * A simple deterministic event queue.
 *
 * Events are callbacks scheduled at absolute simulated times.
 * Ties are broken by insertion order, which makes runs reproducible.
 */
class EventQueue
{
  public:
    /** Opaque handle identifying a scheduled event. */
    struct Handle
    {
        Time when = 0;
        uint64_t seq = 0;
        uint32_t slot = 0;
        bool valid = false;
    };

    using Callback = std::function<void(Time)>;

    /**
     * Schedule a callback at absolute time @p when.
     * Scheduling in the past (before now()) is a bug and panics.
     */
    Handle
    schedule(Time when, Callback cb)
    {
        PACACHE_ASSERT(when >= currentTime,
                       "scheduling into the past: ", when, " < ",
                       currentTime);
        const uint64_t seq = nextSeq++;
        uint32_t slot;
        if (freeHead == kNoSlot) {
            slot = static_cast<uint32_t>(slots.size());
            slots.emplace_back();
        } else {
            slot = freeHead;
            freeHead = static_cast<uint32_t>(slots[slot].seq);
        }
        slots[slot].seq = seq;
        slots[slot].cb = std::move(cb);
        heap.push_back(Entry{when, seq, slot});
        siftUp(heap.size() - 1);
        ++liveCount;
        return Handle{when, seq, slot, true};
    }

    /** Schedule a callback @p delay seconds from now. */
    Handle
    scheduleAfter(Time delay, Callback cb)
    {
        return schedule(currentTime + delay, std::move(cb));
    }

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was pending and is now removed.
     */
    bool
    cancel(Handle &h)
    {
        if (!h.valid)
            return false;
        h.valid = false;
        if (slots.size() <= h.slot || slots[h.slot].seq != h.seq)
            return false;
        // The heap entry goes stale in place and is skipped when it
        // surfaces; once stale entries dominate, one linear
        // compaction reclaims them all, keeping rearm-heavy timer
        // churn O(1) amortized per cancel.
        releaseSlot(h.slot);
        ++staleEntries;
        if (staleEntries > 64 && staleEntries * 2 > heap.size())
            compact();
        return true;
    }

    /** @return true if the handle refers to a still-pending event. */
    bool
    pending(const Handle &h) const
    {
        return h.valid && h.slot < slots.size() &&
               slots[h.slot].seq == h.seq;
    }

    /** Current simulated time. */
    Time now() const { return currentTime; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return liveCount; }

    bool empty() const { return liveCount == 0; }

    /**
     * Pop and run the earliest event.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (staleEntries > 0)
            purgeCancelled();
        if (heap.empty())
            return false;
        const Entry e = popTop();
        Callback cb = std::move(slots[e.slot].cb);
        releaseSlot(e.slot);
        currentTime = e.when;
        cb(currentTime);
        return true;
    }

    /** Run events until the queue drains. */
    void
    runAll()
    {
        while (runOne()) {
        }
    }

    /**
     * Run all events with time <= @p until, then advance the clock
     * to @p until.
     */
    void
    runUntil(Time until)
    {
        while (true) {
            if (staleEntries > 0)
                purgeCancelled();
            if (heap.empty() || heap.front().when > until)
                break;
            runOne();
        }
        if (until > currentTime)
            currentTime = until;
    }

  private:
    /** Trivially copyable heap element; the callback lives apart. */
    struct Entry
    {
        Time when = 0;
        uint64_t seq = 0;
        uint32_t slot = 0;
    };

    /**
     * Callback storage. A slot is live while its seq matches the
     * heap entry pointing at it; cancel/dispatch mark it dead and
     * recycle it through a free list threaded through the dead
     * slots themselves: a dead slot's seq carries the dead tag in
     * its top bit and the next free slot index in its low bits, so
     * recycling touches no memory beyond the slot already in hand.
     * Live sequence numbers never reach 2^63, so a tagged seq can
     * never match a heap entry.
     */
    struct CbSlot
    {
        uint64_t seq = kDeadTag;
        Callback cb;
    };

    static constexpr uint64_t kDeadTag = 1ULL << 63;
    static constexpr uint32_t kNoSlot = ~0U;
    static constexpr std::size_t kArity = 4;

    /** Min-heap order on (when, seq): true if @p a fires later. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        return a.when > b.when ||
               (a.when == b.when && a.seq > b.seq);
    }

    bool entryLive(const Entry &e) const
    {
        return slots[e.slot].seq == e.seq;
    }

    void
    siftUp(std::size_t i)
    {
        const Entry e = heap[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / kArity;
            if (!later(heap[parent], e))
                break;
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = e;
    }

    /** Pick the earliest child of @p i, or the size if @p i is a leaf. */
    std::size_t
    bestChild(std::size_t i, std::size_t n) const
    {
        const std::size_t first = i * kArity + 1;
        if (first >= n)
            return n;
        const std::size_t last = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (later(heap[best], heap[c]))
                best = c;
        }
        return best;
    }

    void
    siftDown(std::size_t i)
    {
        const Entry e = heap[i];
        const std::size_t n = heap.size();
        while (true) {
            const std::size_t best = bestChild(i, n);
            if (best >= n || !later(e, heap[best]))
                break;
            heap[i] = heap[best];
            i = best;
        }
        heap[i] = e;
    }

    /**
     * Remove and return the top; the heap must be non-empty.
     *
     * The hole left at the root is sifted all the way down along the
     * best-child path without comparing against the replacement
     * element; the replacement came from the bottom, so it nearly
     * always belongs back at a leaf and the blind descent saves one
     * compare-and-branch per level over the classic sift-down.
     */
    Entry
    popTop()
    {
        const Entry top = heap.front();
        const Entry last = heap.back();
        heap.pop_back();
        const std::size_t n = heap.size();
        if (n > 0) {
            std::size_t hole = 0;
            while (true) {
                const std::size_t best = bestChild(hole, n);
                if (best >= n)
                    break;
                heap[hole] = heap[best];
                hole = best;
            }
            heap[hole] = last;
            siftUp(hole);
        }
        return top;
    }

    /** Mark dead and recycle; the heap entry goes stale in place. */
    void
    releaseSlot(uint32_t slot)
    {
        slots[slot].seq = kDeadTag | freeHead;
        slots[slot].cb = nullptr; // drop captures now, not at reuse
        freeHead = slot;
        --liveCount;
    }

    /** Filter stale entries and rebuild in one linear pass. */
    void compact();

    /** Drop cancelled entries until the top is live (or empty). */
    void
    purgeCancelled()
    {
        while (!heap.empty() && !entryLive(heap.front())) {
            popTop();
            --staleEntries;
        }
    }

    std::vector<Entry> heap;   //!< 4-ary min-heap
    std::vector<CbSlot> slots; //!< callback slab
    uint32_t freeHead = kNoSlot; //!< free list threaded through slots
    std::size_t staleEntries = 0; //!< cancelled but still heaped
    std::size_t liveCount = 0;
    Time currentTime = 0;
    uint64_t nextSeq = 0;
};

} // namespace pacache

#endif // PACACHE_SIM_EVENT_QUEUE_HH
