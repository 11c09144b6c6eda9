#include "cache/future.hh"

#include <cstdint>

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

} // namespace pacache
