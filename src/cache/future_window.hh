/**
 * @file
 * Out-of-core future knowledge for off-line policies.
 *
 * FutureKnowledge (cache/future.hh) materializes the whole expanded
 * access stream plus three trace-length arrays — fine for RAM-sized
 * traces, impossible for billion-request ones. WindowedFuture
 * computes the same next-use chain *exactly* without ever holding
 * the trace in memory:
 *
 *  1. A backward pass walks the mmap'd .pct file chunk by chunk in
 *     reverse order. A carry map (block -> earliest access seen so
 *     far in the processed suffix) crosses every chunk boundary, so
 *     the stitching is exact for any look-ahead: each access's next
 *     use is the global one, not a per-chunk approximation. Each
 *     chunk emits fixed 16-byte sidecar entries (next index + next
 *     time) into an unlinked temporary file via pwrite, then the
 *     chunk's pages are released (MADV_DONTNEED).
 *
 *  2. Forward replay consumes sidecar entries strictly in order
 *     through a bounded window buffer refilled by pread, so peak RSS
 *     is bounded by max(chunk, window, one entry per unique block) —
 *     never by the trace length.
 *
 * Times of future indices (OPG's gap pricing needs timeOf(j) for
 * deterministic-miss neighbors and resident next-uses) are served
 * from a pinned-times map: every index is pinned exactly once before
 * replay reaches it — cold (first-reference) indices at build, every
 * other index when its predecessor's sidecar entry is consumed — and
 * unpinned when consumed itself. The pinned set therefore holds at
 * most one in-flight entry per distinct block, the same order of
 * memory OPG's deterministic-miss set already needs. Belady only
 * needs next indices and opts out of pinning entirely.
 *
 * Options::pinnedBudgetBytes bounds even that: the backward pass
 * additionally writes an arrival-times sidecar (8 bytes per access),
 * only indices within a budget-derived horizon of the cursor are
 * pinned, and timeOf() for anything farther is an exact pread
 * through a small direct-mapped page cache. Same doubles either
 * way, so replay stays bit-identical under any budget.
 */

#ifndef PACACHE_CACHE_FUTURE_WINDOW_HH
#define PACACHE_CACHE_FUTURE_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "util/flat_map.hh"

namespace pacache
{

/** Streaming (bounded-memory) next-use knowledge over a .pct file. */
class WindowedFuture
{
  public:
    /** Sentinel: the block is never accessed again. */
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
    /** Consumers must stream accesses instead of materializing. */
    static constexpr bool kStreaming = true;

    struct Options
    {
        /** Sidecar read-buffer entries (the look-ahead window). */
        std::size_t windowEntries = std::size_t(1) << 20;
        /** Backward-pass chunk size in block accesses. */
        std::size_t chunkAccesses = std::size_t(1) << 22;
        /**
         * Keep a pinned time for every not-yet-reached index that a
         * consumer may query via timeOf() (OPG). Belady never calls
         * timeOf() and skips the bookkeeping.
         */
        bool pinTimes = true;
        /**
         * Bound the pinned-times map. 0 = pin every in-flight index
         * (exact but O(unique blocks) memory, the historical
         * behavior). > 0 = pin only indices within a budget-derived
         * horizon of the replay cursor and serve far timeOf()
         * queries from an arrival-times sidecar written during the
         * backward pass — the same doubles the records carry, so
         * replay stays bit-identical while the map stays O(horizon).
         */
        std::size_t pinnedBudgetBytes = 0;
    };

    /** A block's first-ever access: seeds OPG's deterministic set. */
    struct ColdSeed
    {
        DiskId disk;
        std::size_t idx;
    };

    WindowedFuture() = default;
    /** Run the backward pass over @p pct_path (fatal on I/O error). */
    explicit WindowedFuture(const std::string &pct_path);
    WindowedFuture(const std::string &pct_path, Options opts);
    ~WindowedFuture();

    WindowedFuture(const WindowedFuture &) = delete;
    WindowedFuture &operator=(const WindowedFuture &) = delete;
    WindowedFuture(WindowedFuture &&other) noexcept;
    WindowedFuture &operator=(WindowedFuture &&other) noexcept;

    bool built() const { return ready; }
    /** Total block-granular accesses in the trace. */
    std::size_t size() const { return total; }
    /** Max disk id + 1 (at least 1). */
    std::size_t numDisks() const { return diskCount; }
    /** Last arrival time (the .pct header's endTime). */
    Time endTime() const { return lastTime; }

    /**
     * Index of the next access to the same block (kNever if none).
     * Consuming: must be called exactly once per index, in strictly
     * increasing order — it advances the sidecar window and moves
     * the time pin from this index to its successor.
     */
    std::size_t nextUse(std::size_t idx);

    /**
     * Time of a future index. Unbounded mode: exactly the indices
     * OPG tracks — deterministic misses and resident next-uses —
     * are pinned; anything else is a bug. Budgeted mode: a pinned
     * hit when the index is near the cursor, otherwise an exact
     * pread from the arrival-times sidecar.
     */
    Time timeOf(std::size_t idx) const;

    /** Far timeOf() queries served by sidecar reads (telemetry). */
    std::uint64_t timeSidecarReads() const { return timeReads; }

    /** First-reference accesses, ascending by index. */
    const std::vector<ColdSeed> &coldSeeds() const { return cold; }

  private:
    /** Sidecar record: next access index (~0 = never) and its time. */
    struct SideEntry
    {
        std::uint64_t next;
        double time;
    };
    static constexpr std::uint64_t kNever64 = ~std::uint64_t{0};

    void build(const std::string &pct_path);
    void refill(std::size_t from);
    void closeFd();
    bool budgeted() const
    {
        return opts.pinTimes && opts.pinnedBudgetBytes > 0;
    }
    Time readTime(std::size_t idx) const;

    /** Times-sidecar page cache: 8 direct-mapped 4 KiB pages. */
    static constexpr std::size_t kTimePageDoubles = 512;
    static constexpr std::size_t kTimePages = 8;
    struct TimePage
    {
        std::size_t base = kNever;
        std::vector<double> buf;
    };

    Options opts;
    int sidecarFd = -1;
    int timesFd = -1; //!< arrival-times sidecar (budgeted mode)
    std::size_t total = 0;
    std::size_t diskCount = 1;
    Time lastTime = 0;
    bool ready = false;
    std::size_t pinHorizon = 0; //!< pinned entries ahead of cursor

    std::vector<ColdSeed> cold;
    /** idx -> arrival time for every pinned future index. */
    FlatMap<std::uint64_t, double> pinned;

    std::vector<SideEntry> window;
    std::size_t winBase = 0;
    std::size_t winCount = 0;
    std::size_t cursor = 0; //!< next index nextUse() will accept

    mutable std::vector<TimePage> timePages;
    mutable std::uint64_t timeReads = 0;
};

} // namespace pacache

#endif // PACACHE_CACHE_FUTURE_WINDOW_HH
