/**
 * @file
 * SpillPool — a shared byte-budgeted residency manager for paged
 * containers that overflow to disk (the bounded-memory oracle tier).
 *
 * Several containers (one per disk for OPG's deterministic-miss sets
 * and next-use indexes, plus the cold-miss bitmap tier) share one
 * pool so a single `--oracle-mem-budget` bounds their *combined*
 * resident footprint. The pool owns three things:
 *
 *  - an intrusive recency list over resident pages with CLOCK-style
 *    second-chance eviction. Every resident page is registered with
 *    its owner (a SpillClient) and byte size; touch() sets a
 *    reference bit rather than splicing the list (cheap enough for
 *    the replay hot path). When the resident total exceeds the
 *    budget, the pool sweeps from the cold end, granting referenced
 *    pages a second chance (move to front, clear the bit) and asking
 *    owners to spill the rest via spillPage(). Pinned pages
 *    (mid-operation) are skipped, which also gives budget = 0 a
 *    well-defined floor: the pages an operation currently touches;
 *  - fixed-size spill slots in one unlinked temporary file, handed
 *    out from per-size free lists. The file is created lazily, so an
 *    unbounded budget never touches the filesystem, and unlinking
 *    means the space is reclaimed on close and never listed;
 *  - pread/pwrite plumbing with EINTR handling, mirroring the
 *    WindowedFuture sidecar discipline: spilled bytes live in the OS
 *    page cache (reclaimable, not charged to the process), which is
 *    exactly what bounds VmHWM while keeping refaults near-memcpy.
 *
 * Single-threaded by design, like the containers it backs: each
 * policy instance owns its pool (shard-parallel replay gives every
 * shard its own).
 */

#ifndef PACACHE_UTIL_SPILL_POOL_HH
#define PACACHE_UTIL_SPILL_POOL_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace pacache
{

/**
 * Owner of spillable resident pages. spillPage() must serialize the
 * page into a spill slot (allocSlot/writeSlot) and forget its
 * resident copy; the pool unregisters the page itself afterwards.
 * The callback must not touch the LRU (add/touch/remove/pin/unpin).
 */
class SpillClient
{
  public:
    virtual ~SpillClient() = default;
    virtual void spillPage(std::uint32_t page) = 0;
};

/** Budgeted LRU + spill-slot allocator; see the file comment. */
class SpillPool
{
  public:
    static constexpr std::uint32_t kNoToken = ~std::uint32_t{0};
    static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

    /** @param budget_bytes resident ceiling (SIZE_MAX = never spill) */
    explicit SpillPool(std::size_t budget_bytes);
    ~SpillPool();

    SpillPool(const SpillPool &) = delete;
    SpillPool &operator=(const SpillPool &) = delete;

    /**
     * Register a resident page and (maybe) evict others to make room.
     * A page added pinned cannot be chosen as a victim until its
     * owner unpins it — add the page *before* populating it if the
     * population can itself trigger pool traffic.
     * @return the page's LRU token.
     */
    std::uint32_t add(SpillClient *owner, std::uint32_t page,
                      std::size_t bytes, bool pinned);

    /**
     * Mark a resident page recently used. Deliberately *not* a list
     * splice: touch runs on every container operation, spilling or
     * not, and moving a node costs scattered writes to three nodes.
     * Instead it sets a second-chance bit that the enforcement sweep
     * spends — a referenced page at the cold end is moved to the
     * front rather than spilled (CLOCK, with the list order standing
     * in for the hand). Inline (with pin/unpin and remove below):
     * the call overhead alone is measurable on the replay hot path.
     */
    void
    touch(std::uint32_t token)
    {
        PACACHE_ASSERT(token < nodes.size() && nodes[token].live,
                       "SpillPool touch of dead token");
        nodes[token].referenced = true;
    }

    /** Unregister a page the owner dropped itself (erase/clear). */
    void
    remove(std::uint32_t token)
    {
        PACACHE_ASSERT(token < nodes.size() && nodes[token].live,
                       "SpillPool remove of dead token");
        Node &n = nodes[token];
        unlink(token);
        resident -= n.bytes;
        --liveNodes;
        n.live = false;
        n.owner = nullptr;
        n.pins = 0;
        n.referenced = false;
        freeNodes.push_back(token);
    }

    /** Pin: exempt from eviction while an operation holds refs. */
    void
    pin(std::uint32_t token)
    {
        PACACHE_ASSERT(token < nodes.size() && nodes[token].live,
                       "SpillPool pin of dead token");
        ++nodes[token].pins;
    }

    /** Unpin (enforcement waits for the next add()). */
    void
    unpin(std::uint32_t token)
    {
        PACACHE_ASSERT(token < nodes.size() && nodes[token].live &&
                           nodes[token].pins > 0,
                       "SpillPool unpin imbalance");
        // No enforcement here: spilling at unpin would invalidate
        // pointers a query just returned (find() into the page). The
        // next add() re-enforces, so the excess is bounded by the
        // pages one operation pins.
        --nodes[token].pins;
    }

    /** Re-key a resident page after its owner moved it to @p page. */
    void
    renumber(std::uint32_t token, std::uint32_t page)
    {
        PACACHE_ASSERT(token < nodes.size() && nodes[token].live,
                       "SpillPool renumber of dead token");
        nodes[token].page = page;
    }

    /** Acquire a spill slot of exactly @p bytes (size-class reuse). */
    std::uint64_t allocSlot(std::size_t bytes);
    /** Return a slot to its size-class free list. */
    void freeSlot(std::uint64_t offset, std::size_t bytes);

    void writeSlot(std::uint64_t offset, const void *data,
                   std::size_t bytes);
    void readSlot(std::uint64_t offset, void *data,
                  std::size_t bytes) const;

    std::size_t budgetBytes() const { return budget; }
    std::size_t residentBytes() const { return resident; }
    std::size_t residentPages() const { return liveNodes; }
    /** Total bytes ever placed under management (monotone). */
    std::uint64_t spillFileBytes() const { return fileEnd; }
    /** Pages pushed out by budget enforcement (monotone). */
    std::uint64_t evictions() const { return evicted; }

    /** Test hook: LRU/accounting consistency; panics on drift. */
    void checkInvariants() const;

  private:
    struct Node
    {
        SpillClient *owner = nullptr;
        std::uint32_t page = 0;
        std::uint32_t bytes = 0;
        std::uint32_t pins = 0;
        std::uint32_t prev = kNoToken;
        std::uint32_t next = kNoToken;
        bool live = false;
        /** Second-chance bit set by touch(), spent by enforce(). */
        bool referenced = false;
    };

    void
    linkFront(std::uint32_t token)
    {
        Node &n = nodes[token];
        n.prev = kNoToken;
        n.next = head;
        if (head != kNoToken)
            nodes[head].prev = token;
        head = token;
        if (tail == kNoToken)
            tail = token;
    }

    void
    unlink(std::uint32_t token)
    {
        Node &n = nodes[token];
        if (n.prev != kNoToken)
            nodes[n.prev].next = n.next;
        else
            head = n.next;
        if (n.next != kNoToken)
            nodes[n.next].prev = n.prev;
        else
            tail = n.prev;
        n.prev = n.next = kNoToken;
    }

    void enforce();
    void ensureFile();

    std::size_t budget;
    std::size_t resident = 0;
    std::size_t liveNodes = 0;
    std::uint64_t evicted = 0;
    std::uint64_t fileEnd = 0;
    int fd = -1;

    std::vector<Node> nodes;
    std::vector<std::uint32_t> freeNodes;
    std::uint32_t head = kNoToken; //!< MRU end
    std::uint32_t tail = kNoToken; //!< LRU end
    /** Spill-slot free lists, one per distinct slot size. */
    std::vector<std::pair<std::size_t, std::vector<std::uint64_t>>>
        slotFree;
};

} // namespace pacache

#endif // PACACHE_UTIL_SPILL_POOL_HH
