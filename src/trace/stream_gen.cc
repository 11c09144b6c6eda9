#include "trace/stream_gen.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace pacache
{

StreamingSyntheticSource::StreamingSyntheticSource(
    std::vector<DiskStream> streams_, Time duration_, uint64_t seed_,
    uint64_t max_requests)
    : streams(std::move(streams_)), duration(duration_), seed(seed_),
      maxRequests(max_requests)
{
    PACACHE_ASSERT(!streams.empty(), "need at least one stream");
    PACACHE_ASSERT(duration > 0 || maxRequests > 0,
                   "unbounded generator: set a duration or a "
                   "request cap");
    reinit();
}

void
StreamingSyntheticSource::reinit()
{
    state.clear();
    state.reserve(streams.size());
    heap = {};
    emitted = 0;
    // Stream i draws from seed * golden-ratio + i + 1.
    for (std::size_t i = 0; i < streams.size(); ++i) {
        state.emplace_back(seed * 0x9e3779b97f4a7c15ULL + i + 1,
                           streams[i]);
        schedule(i, streams[i].arrival.sample(state[i].rng));
    }
}

void
StreamingSyntheticSource::schedule(std::size_t i, Time t)
{
    state[i].next = t;
    // The finite check guards pathological arrival models (an
    // infinite mean yields an infinite gap): that stream simply
    // never fires, instead of wedging an unbounded run.
    if (std::isfinite(t) && (duration <= 0 || t <= duration))
        heap.emplace(t, i);
}

bool
StreamingSyntheticSource::next(TraceRecord &out)
{
    if (heap.empty() || (maxRequests > 0 && emitted >= maxRequests))
        return false;
    const auto [t, i] = heap.top();
    heap.pop();
    StreamState &st = state[i];

    out.time = t;
    out.disk = static_cast<DiskId>(i);
    out.block = st.gen.next(st.rng);
    out.numBlocks = 1;
    out.write = st.rng.chance(streams[i].writeRatio);
    ++emitted;

    schedule(i, t + streams[i].arrival.sample(st.rng));
    return true;
}

void
StreamingSyntheticSource::rewind()
{
    reinit();
}

std::vector<DiskStream>
scaledOltpStreams(uint32_t num_disks)
{
    PACACHE_ASSERT(num_disks > 0, "need at least one disk");
    // The paper's 6-of-21 busy minority, at any scale.
    const uint32_t busy = std::max<uint32_t>(
        1, static_cast<uint32_t>(
               (static_cast<uint64_t>(num_disks) * 6) / 21));
    std::vector<DiskStream> streams(num_disks);
    for (uint32_t d = 0; d < num_disks; ++d) {
        DiskStream &s = streams[d];
        s.writeRatio = 0.22;
        if (d < busy) {
            s.arrival = ArrivalModel::pareto(800, 1.5);
            s.address.footprintBlocks = 400000;
            s.address.reuseProb = 0.15;
            s.address.seqProb = 0.05;
            s.address.localProb = 0.15;
            s.address.zipfTheta = 0.6;
        } else {
            s.arrival = ArrivalModel::pareto(3000, 1.5);
            s.address.footprintBlocks = 500;
            s.address.reuseProb = 0.995;
            s.address.seqProb = 0.01;
            s.address.localProb = 0.02;
            s.address.zipfTheta = 1.1;
            s.address.stackSize = 1u << 11;
        }
    }
    return streams;
}

std::vector<DiskStream>
scaledCelloStreams(uint32_t num_disks)
{
    PACACHE_ASSERT(num_disks > 0, "need at least one disk");
    std::vector<DiskStream> streams(num_disks);
    double interarrival_ms = 15;
    for (uint32_t d = 0; d < num_disks; ++d) {
        DiskStream &s = streams[d];
        s.arrival = ArrivalModel::pareto(interarrival_ms, 1.3);
        s.writeRatio = 0.38;
        s.address.footprintBlocks = 2000000;
        s.address.reuseProb = 0.45;
        s.address.seqProb = 0.15;
        s.address.localProb = 0.15;
        s.address.zipfTheta = 0.8;
        s.address.stackSize = 1u << 12;
        interarrival_ms = std::min(interarrival_ms * 1.42, 60000.0);
    }
    return streams;
}

} // namespace pacache
