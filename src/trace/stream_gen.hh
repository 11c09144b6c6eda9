/**
 * @file
 * Streaming synthetic workload generation: the per-disk composite
 * model as a TraceSource, so multi-GB traces can be written to .pct
 * or drive a simulation directly without ever materializing a Trace
 * (generatePerDisk() in trace/synthetic.hh is this source read into
 * memory). State is one RNG + address generator per disk plus a
 * min-heap of pending arrivals — independent of how many requests
 * are produced.
 *
 * Determinism: the same streams/duration/seed yield the same record
 * sequence; rewind() reinitializes every stream from the seed and
 * replays it bit for bit.
 */

#ifndef PACACHE_TRACE_STREAM_GEN_HH
#define PACACHE_TRACE_STREAM_GEN_HH

#include <queue>
#include <vector>

#include "trace/synthetic.hh"
#include "tracefmt/trace_source.hh"

namespace pacache
{

/** Pull-based generator over independent per-disk streams. */
class StreamingSyntheticSource : public tracefmt::TraceSource
{
  public:
    /**
     * Stream i drives disk i. @p duration <= 0 means unbounded (stop
     * on @p max_requests alone); @p max_requests == 0 means no
     * request cap. At least one bound must be positive.
     */
    StreamingSyntheticSource(std::vector<DiskStream> streams,
                             Time duration, uint64_t seed = 42,
                             uint64_t max_requests = 0);

    bool next(TraceRecord &out) override;
    void rewind() override;
    const char *formatName() const override { return "synthetic"; }
    uint64_t numDisksHint() const override { return streams.size(); }

    uint64_t
    sizeHint() const override
    {
        return maxRequests > 0 ? maxRequests : kUnknown;
    }

  private:
    struct StreamState
    {
        Rng rng;
        AddressGenerator gen;
        Time next;

        StreamState(uint64_t s, const DiskStream &ds)
            : rng(s), gen(ds.address), next(0)
        {
        }
    };

    void reinit();
    void schedule(std::size_t i, Time t);

    std::vector<DiskStream> streams;
    Time duration;
    uint64_t seed;
    uint64_t maxRequests;

    std::vector<StreamState> state;
    using HeapEntry = std::pair<Time, std::size_t>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>>
        heap;
    uint64_t emitted = 0;
};

/**
 * OLTP-like per-disk streams scaled to @p num_disks: the workload
 * synthesizer's constants (trace/workloads.cc) with the busy:quiet
 * disk ratio held at the paper's 6:21.
 */
std::vector<DiskStream> scaledOltpStreams(uint32_t num_disks);

/**
 * Cello-like per-disk streams scaled to @p num_disks: geometric
 * per-disk rate falloff from the synthesizer's constants, with the
 * inter-arrival time capped at 60 s so a thousand-disk array still
 * has live cold spindles instead of numerically-never ones, and the
 * reuse stacks shrunk to keep generator state per disk small.
 */
std::vector<DiskStream> scaledCelloStreams(uint32_t num_disks);

} // namespace pacache

#endif // PACACHE_TRACE_STREAM_GEN_HH
