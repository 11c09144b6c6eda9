#include "trace/synthetic.hh"

#include <algorithm>

#include "trace/stream_gen.hh"
#include "util/logging.hh"

namespace pacache
{

Time
ArrivalModel::sample(Rng &rng) const
{
    const double mean_s = meanMs * 1e-3;
    switch (kind) {
      case Kind::Exponential:
        return rng.exponential(mean_s);
      case Kind::Pareto: {
        // Mean of Pareto(shape, scale) is scale*shape/(shape-1); pick
        // the scale so the requested mean is hit.
        PACACHE_ASSERT(paretoShape > 1.0,
                       "pareto arrivals need shape > 1 for a finite mean");
        const double scale = mean_s * (paretoShape - 1.0) / paretoShape;
        return rng.pareto(paretoShape, scale);
      }
    }
    PACACHE_PANIC("unreachable arrival kind");
}

AddressGenerator::AddressGenerator(const Params &params)
    : p(params),
      zipf(std::max<std::size_t>(1, params.stackSize), params.zipfTheta)
{
    PACACHE_ASSERT(p.footprintBlocks > 0, "footprint must be positive");
    PACACHE_ASSERT(p.seqProb + p.localProb <= 1.0 + 1e-9,
                   "spatial probabilities exceed 1");
    stack.resize(std::max<std::size_t>(1, p.stackSize));
}

void
AddressGenerator::push(BlockNum b)
{
    stack[head] = b;
    head = (head + 1) % stack.size();
    filled = std::min(filled + 1, stack.size());
    last = b;
}

BlockNum
AddressGenerator::next(Rng &rng)
{
    const double r = rng.uniform();
    BlockNum b;
    if (r < p.seqProb) {
        b = (last + 1) % p.footprintBlocks;
    } else if (r < p.seqProb + p.localProb) {
        const auto dist = static_cast<int64_t>(
            rng.below(2 * p.maxLocalDistance + 1)) -
            static_cast<int64_t>(p.maxLocalDistance);
        const auto moved = static_cast<int64_t>(last) + dist;
        const auto span = static_cast<int64_t>(p.footprintBlocks);
        b = static_cast<BlockNum>(((moved % span) + span) % span);
    } else if (filled > 0 && rng.chance(p.reuseProb)) {
        // Temporal locality: Zipf-distributed stack distance.
        const std::size_t d = zipf.sample(rng) % filled;
        const std::size_t idx = (head + stack.size() - 1 - d) %
                                stack.size();
        b = stack[idx];
    } else {
        b = rng.below(p.footprintBlocks);
    }
    push(b);
    return b;
}

namespace
{

/** Cumulative weights for skewed disk choice (empty: uniform). */
std::vector<double>
diskCdf(const SyntheticParams &params)
{
    if (params.diskWeights.empty())
        return {};
    PACACHE_ASSERT(params.diskWeights.size() == params.numDisks,
                   "diskWeights must have one entry per disk");
    std::vector<double> cdf(params.diskWeights.size());
    double sum = 0;
    for (std::size_t d = 0; d < cdf.size(); ++d) {
        PACACHE_ASSERT(params.diskWeights[d] >= 0,
                       "diskWeights must be non-negative");
        sum += params.diskWeights[d];
        cdf[d] = sum;
    }
    PACACHE_ASSERT(sum > 0, "diskWeights must have a positive sum");
    return cdf;
}

} // namespace

Trace
generateSynthetic(const SyntheticParams &params)
{
    PACACHE_ASSERT(params.numDisks > 0, "need at least one disk");
    Rng rng(params.seed);

    std::vector<AddressGenerator> gens;
    gens.reserve(params.numDisks);
    for (uint32_t d = 0; d < params.numDisks; ++d)
        gens.emplace_back(params.address);

    const std::vector<double> cdf = diskCdf(params);

    Trace trace;
    Time now = 0;
    for (uint64_t i = 0; i < params.numRequests; ++i) {
        now += params.arrival.sample(rng);
        TraceRecord rec;
        rec.time = now;
        if (cdf.empty()) {
            rec.disk = static_cast<DiskId>(rng.below(params.numDisks));
        } else {
            const double pick = rng.uniform() * cdf.back();
            const auto it =
                std::upper_bound(cdf.begin(), cdf.end(), pick);
            rec.disk = static_cast<DiskId>(
                std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1));
        }
        rec.block = gens[rec.disk].next(rng);
        rec.numBlocks = 1;
        rec.write = rng.chance(params.writeRatio);
        trace.append(rec);
    }
    return trace;
}

Trace
generatePerDisk(const std::vector<DiskStream> &streams, Time duration,
                uint64_t seed)
{
    PACACHE_ASSERT(duration > 0, "duration must be positive");
    StreamingSyntheticSource src(streams, duration, seed);
    return tracefmt::readAll(src);
}

} // namespace pacache
