#include "cache/future.hh"

#include <cstdint>

#include "util/flat_map.hh"
#include "util/logging.hh"

namespace pacache
{

std::vector<BlockAccess>
expandTrace(const Trace &trace)
{
    std::vector<BlockAccess> out;
    out.reserve(trace.numBlockAccesses());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord &rec = trace[i];
        for (uint32_t b = 0; b < rec.numBlocks; ++b) {
            out.push_back(BlockAccess{rec.time,
                                      BlockId{rec.disk, rec.block + b},
                                      rec.write, i});
        }
    }
    return out;
}

FutureKnowledge
FutureKnowledge::build(const std::vector<BlockAccess> &accesses)
{
    FutureKnowledge fk;
    fk.next.assign(accesses.size(), kNever);
    fk.first.assign(accesses.size(), false);
    fk.times.resize(accesses.size());

    // Scan backwards: lastSeen maps block -> the most recent (i.e.
    // next, in forward order) access index. Keys are the packed
    // 64-bit ids — cheaper to hash and compare than the struct. The
    // table holds one entry per *unique block*, so it is sized to
    // half the trace (covers even reuse-poor streams like OLTP at 55%
    // unique) rather than the whole of it: a trace-sized table would
    // spread the random probes over twice the memory for no fewer
    // collisions, while under-sizing forces a mid-scan rehash. The
    // 32-bit mapped index keeps slots at 16 bytes. The times copy
    // rides the same pass — the records are already in cache.
    PACACHE_ASSERT(accesses.size() < UINT32_MAX,
                   "trace too large for 32-bit future indices");
    FlatMap<std::uint64_t, std::uint32_t> last_seen;
    last_seen.reserve(accesses.size() / 2 + 16);
    for (std::size_t i = accesses.size(); i-- > 0;) {
        fk.times[i] = accesses[i].time;
        auto [slot, inserted] = last_seen.emplace(
            accesses[i].block.packed(), static_cast<std::uint32_t>(i));
        if (!inserted) {
            fk.next[i] = *slot;
            *slot = static_cast<std::uint32_t>(i);
        }
    }
    // Entries left in lastSeen hold each block's earliest access.
    last_seen.forEach([&](std::uint64_t, std::uint32_t idx) {
        fk.first[idx] = true;
    });
    return fk;
}

} // namespace pacache
