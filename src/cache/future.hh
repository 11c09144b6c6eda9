/**
 * @file
 * Block-granular access streams and off-line future knowledge.
 *
 * The storage cache operates on single blocks, so multi-block trace
 * requests are expanded into per-block accesses. Off-line policies
 * (Belady, OPG) additionally need, for every access, the *next*
 * access to the same block (its index, and for OPG's gap pricing its
 * time) and whether the access is the first ever to its block (a cold
 * miss); FutureKnowledge precomputes both in O(n).
 */

#ifndef PACACHE_CACHE_FUTURE_HH
#define PACACHE_CACHE_FUTURE_HH

#include <cstddef>
#include <vector>

#include "sim/types.hh"
#include "trace/trace.hh"

namespace pacache
{

/** One block-granular cache access. */
struct BlockAccess
{
    Time time = 0;
    BlockId block;
    bool write = false;
    std::size_t traceIndex = 0; //!< index of the originating request
};

/**
 * A future access as the off-line policies track it: its index in the
 * block-access stream and its arrival time. Ordered and compared by
 * index alone — an index has exactly one time, and times never
 * decrease along the stream — so the time rides along as payload.
 */
struct FutureAccess
{
    std::size_t idx = 0;
    Time time = 0;

    bool operator<(const FutureAccess &o) const { return idx < o.idx; }
    bool operator==(const FutureAccess &o) const { return idx == o.idx; }
};

/**
 * Expand a trace into block-granular accesses. The output vector is
 * reserved exactly from the trace's cached block-access count (which
 * ultimately derives from the TraceSource size hints), so expansion
 * never reallocates.
 */
std::vector<BlockAccess> expandTrace(const Trace &trace);

/**
 * Next-use and cold-miss precomputation for off-line policies.
 *
 * Stored as structure-of-arrays: the next-use chain, the cold-miss
 * bits, and a copy of the access times each live in their own dense
 * array. Oracle replay touches times and next-use indices millions of
 * times through gap pricing; reading them from 8-byte-stride arrays
 * instead of the 40-byte BlockAccess records keeps the hot loop's
 * memory traffic to the fields it actually uses.
 */
class FutureKnowledge
{
  public:
    /** Sentinel: the block is never accessed again. */
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
    /** Materialized provider: consumers may hold the whole stream. */
    static constexpr bool kStreaming = false;

    /** Build from an expanded access stream. */
    static FutureKnowledge build(const std::vector<BlockAccess> &accesses);

    /**
     * Retained original build, used by the reference policies: a
     * node-based std::unordered_map keyed by the full BlockId. Same
     * output as build() — the reference replay path keeps the whole
     * legacy stack behind the policy interface so old-vs-new
     * comparisons time the stacks as they actually were.
     */
    static FutureKnowledge
    buildRef(const std::vector<BlockAccess> &accesses);

    /**
     * The next access to the same block and its time (idx kNever,
     * time 0 if none). Callers that read only .idx pay no time load:
     * the call inlines and the dead read folds away.
     */
    FutureAccess
    nextUse(std::size_t idx) const
    {
        const std::size_t n = next[idx];
        return {n, n == kNever ? 0.0 : times[n]};
    }

    /** True if access idx is the first ever to its block. */
    bool isFirstReference(std::size_t idx) const { return first[idx]; }

    std::size_t size() const { return next.size(); }

  private:
    std::vector<std::size_t> next;
    std::vector<Time> times;
    std::vector<bool> first;
};

} // namespace pacache

#endif // PACACHE_CACHE_FUTURE_HH
