/**
 * @file
 * Future knowledge for the off-line policies (Belady, OPG): for every
 * block access, the next access to the same block (its index and
 * arrival time), plus every block's first reference (its cold miss).
 * WindowedFuture is the one provider; it builds two ways and serves
 * both through the same window:
 *
 *  - In memory, from an expanded access stream: one backward pass
 *    over the stream (a block -> next-access map) writes each
 *    access's 16-byte entry (next index + next time) straight into a
 *    window that holds the whole stream, and a first-reference bit
 *    per access yields the cold seeds in index order. No file is
 *    involved and nothing is sorted.
 *
 *  - Out of core, from a .pct file, without ever holding the trace in
 *    memory:
 *     1. One backward walk over the mmap'd records, last access
 *        first, numbers each access by its distance from the end of
 *        the stream (its reverse ordinal). A carry map (block -> its
 *        earliest access in the walked suffix) gives each access its
 *        global next use, so the entries are exact for any window.
 *        They leave through the window buffer into an unlinked
 *        temporary sidecar file via pwrite, and the records' pages
 *        are released behind the walk (MADV_DONTNEED).
 *     2. Forward replay consumes the entries strictly in order
 *        through the same window, refilled by pread: each refill
 *        reads a run of reverse ordinals, reverses it and maps the
 *        ordinals back to indices. Peak RSS is bounded by
 *        max(window, one carry entry and one cold seed per unique
 *        block), never by the trace length.
 *
 * Each entry carries the next access's arrival time beside its index,
 * and each cold seed carries its own time, so a consumer that prices
 * gaps (OPG) receives every future time it will ever need together
 * with the index, and stores the two side by side. Nothing here looks
 * a time up by index.
 */

#ifndef PACACHE_CACHE_FUTURE_WINDOW_HH
#define PACACHE_CACHE_FUTURE_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/future.hh"
#include "sim/types.hh"
#include "util/logging.hh"

namespace pacache
{

/** Next-use knowledge, consumed in access order through a window. */
class WindowedFuture
{
  public:
    /** Sentinel: the block is never accessed again. */
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

    struct Options
    {
        /** Look-ahead window entries (also the build's write buffer). */
        std::size_t windowEntries = std::size_t(1) << 20;
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
    /**
     * Build in memory from an expanded access stream (expandTrace):
     * the window holds the whole stream and no sidecar file exists.
     */
    explicit WindowedFuture(const std::vector<BlockAccess> &accesses);
    /** Walk @p pct_path backward (fatal on I/O or record error). */
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
    /** Last arrival time (out of core: the .pct header's endTime). */
    Time endTime() const { return lastTime; }

    /**
     * The next access to the same block and its time (idx kNever if
     * none). Consuming: must be called exactly once per index, in
     * strictly increasing order — it advances the window. A window
     * hit inlines into the replay loop; only a refill is a call.
     */
    FutureAccess
    nextUse(std::size_t idx)
    {
        PACACHE_ASSERT(idx == cursor,
                       "future consumed out of order: index ", idx,
                       ", expected ", cursor);
        ++cursor;
        if (idx - winBase >= winCount)
            refill(idx);
        const SideEntry &e = window[idx - winBase];
        return {static_cast<std::size_t>(e.next), e.time};
    }

    /** Hand over the first-reference accesses, ascending by index
     *  (the future keeps none: a second call returns nothing). */
    std::vector<ColdSeed> takeColdSeeds() { return std::exchange(cold, {}); }

  private:
    /** Sidecar record: next access index (~0 = never) and its time. */
    struct SideEntry
    {
        std::uint64_t next;
        double time;
    };
    static constexpr std::uint64_t kNever64 = ~std::uint64_t{0};
    static_assert(kNever64 == kNever, "entries store kNever verbatim");

    void build(const std::string &pct_path);
    /** Read the sidecar window starting at @p from (panics past the
     *  end, which is where an unbuilt or in-memory future lands). */
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
