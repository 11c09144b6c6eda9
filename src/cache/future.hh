/**
 * @file
 * Block-granular access streams.
 *
 * The storage cache operates on single blocks, so multi-block trace
 * requests are expanded into per-block accesses. Off-line policies
 * (Belady, OPG) additionally need, for every access, the *next*
 * access to the same block (its index, and for OPG's gap pricing its
 * time) and whether the access is the first ever to its block (a cold
 * miss); WindowedFuture (cache/future_window.hh) provides both.
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

} // namespace pacache

#endif // PACACHE_CACHE_FUTURE_HH
