#include "trace/stats.hh"

#include <algorithm>
#include <unordered_set>

#include "tracefmt/trace_source.hh"

namespace pacache
{

TraceStats
characterize(const Trace &trace)
{
    tracefmt::MemorySource src(trace);
    return characterize(src);
}

TraceStats
characterize(tracefmt::TraceSource &src)
{
    TraceStats s;
    std::vector<Time> first, last;
    std::vector<std::unordered_set<BlockNum>> seen;
    uint64_t writes = 0;
    Time first_time = 0;
    TraceRecord rec;

    while (src.next(rec)) {
        if (s.requests == 0)
            first_time = rec.time;
        ++s.requests;
        if (rec.write)
            ++writes;
        if (rec.disk >= s.disks) {
            s.disks = rec.disk + 1;
            s.perDiskRequests.resize(s.disks, 0);
            first.resize(s.disks, -1.0);
            last.resize(s.disks, 0.0);
            seen.resize(s.disks);
        }
        s.perDiskRequests[rec.disk]++;
        if (first[rec.disk] < 0)
            first[rec.disk] = rec.time;
        last[rec.disk] = rec.time;
        for (uint32_t b = 0; b < rec.numBlocks; ++b)
            seen[rec.disk].insert(rec.block + b);
        s.duration = rec.time;
    }
    if (s.requests == 0)
        return s;

    s.perDiskInterArrival.assign(s.disks, 0.0);
    s.perDiskUnique.assign(s.disks, 0);
    for (uint32_t d = 0; d < s.disks; ++d) {
        if (s.perDiskRequests[d] > 1) {
            s.perDiskInterArrival[d] =
                (last[d] - first[d]) /
                static_cast<double>(s.perDiskRequests[d] - 1);
        }
        s.perDiskUnique[d] = seen[d].size();
        s.uniqueBlocks += seen[d].size();
    }
    s.writeRatio = static_cast<double>(writes) /
                   static_cast<double>(s.requests);
    if (s.requests > 1) {
        s.meanInterArrival = (s.duration - first_time) /
                             static_cast<double>(s.requests - 1);
    }
    return s;
}

} // namespace pacache
