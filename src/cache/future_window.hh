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
 * Each sidecar entry carries the next access's arrival time beside
 * its index, and each cold seed carries its own time, so a consumer
 * that prices gaps (OPG) receives every future time it will ever need
 * together with the index, and stores the two side by side. Nothing
 * here looks a time up by index.
 */

#ifndef PACACHE_CACHE_FUTURE_WINDOW_HH
#define PACACHE_CACHE_FUTURE_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/future.hh"
#include "sim/types.hh"

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
         * Has no effect: times travel with nextUse() and the cold
         * seeds. Kept only because perfbench/layers.cc still sets
         * it; delete the two together.
         */
        bool pinTimes = true;
    };

    /** A block's first-ever access: seeds OPG's deterministic set. */
    struct ColdSeed
    {
        DiskId disk;
        std::size_t idx;
        Time time;
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
     * The next access to the same block and its time (idx kNever if
     * none). Consuming: must be called exactly once per index, in
     * strictly increasing order — it advances the sidecar window.
     */
    FutureAccess nextUse(std::size_t idx);

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

    Options opts;
    int sidecarFd = -1;
    std::size_t total = 0;
    std::size_t diskCount = 1;
    Time lastTime = 0;
    bool ready = false;

    std::vector<ColdSeed> cold;

    std::vector<SideEntry> window;
    std::size_t winBase = 0;
    std::size_t winCount = 0;
    std::size_t cursor = 0; //!< next index nextUse() will accept
};

} // namespace pacache

#endif // PACACHE_CACHE_FUTURE_WINDOW_HH
