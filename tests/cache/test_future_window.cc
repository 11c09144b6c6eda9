/**
 * @file
 * WindowedFuture must reproduce FutureKnowledge exactly: the
 * backward chunked pass over the .pct file, stitched across chunk
 * boundaries by the carry map, yields the *global* next-use chain for
 * every window and chunk size — including window 1 and a chunk
 * smaller than one multi-block request.
 */

#include <gtest/gtest.h>

#include "cache/future.hh"
#include "cache/future_window.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/trace_source.hh"

#include "../tracefmt/temp_file.hh"

namespace pacache
{
namespace
{

Trace
workload(uint64_t seed = 5)
{
    SyntheticParams p;
    p.numRequests = 1200;
    p.numDisks = 5;
    p.arrival = ArrivalModel::exponential(40.0);
    p.address.footprintBlocks = 150; // dense reuse: long next-use chains
    p.seed = seed;
    return generateSynthetic(p);
}

/** A few multi-block requests, so expansion crosses chunk bounds. */
Trace
multiBlockWorkload()
{
    Trace t;
    const uint32_t lens[] = {1, 3, 7, 2, 5, 1, 4, 8, 2, 6};
    Time now = 0;
    for (int i = 0; i < 60; ++i) {
        TraceRecord rec;
        rec.time = now;
        rec.disk = static_cast<DiskId>(i % 3);
        rec.block = static_cast<BlockNum>((i * 11) % 40);
        rec.numBlocks = lens[i % 10];
        rec.write = (i % 4) == 0;
        t.append(rec);
        now += 0.25;
    }
    return t;
}

std::string
writeTracePct(const Trace &t, const std::string &name)
{
    const std::string path = test::tempPath(name);
    tracefmt::MemorySource src(t);
    tracefmt::writePct(path, src);
    return path;
}

/**
 * Drive @p fut through the whole access stream in consumption order
 * and compare every cold seed and every next use — index and time —
 * against the materialized reference.
 */
void
expectMatchesReference(const Trace &t, WindowedFuture &fut)
{
    const std::vector<BlockAccess> accesses = expandTrace(t);
    const FutureKnowledge ref = FutureKnowledge::build(accesses);
    ASSERT_TRUE(fut.built());
    ASSERT_EQ(fut.size(), ref.size());
    EXPECT_EQ(fut.numDisks(), t.numDisks());
    EXPECT_EQ(fut.endTime(), t.endTime());

    // Cold seeds are exactly the first-reference accesses, ascending,
    // each with its own arrival time.
    std::size_t seed_at = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!ref.isFirstReference(i))
            continue;
        ASSERT_LT(seed_at, fut.coldSeeds().size());
        const WindowedFuture::ColdSeed &seed = fut.coldSeeds()[seed_at];
        EXPECT_EQ(seed.idx, i);
        EXPECT_EQ(seed.disk, accesses[i].block.disk);
        EXPECT_EQ(seed.time, accesses[i].time) << "cold " << i;
        ++seed_at;
    }
    EXPECT_EQ(seed_at, fut.coldSeeds().size());

    for (std::size_t i = 0; i < ref.size(); ++i) {
        const FutureAccess next = fut.nextUse(i);
        EXPECT_EQ(next.idx, ref.nextUse(i).idx) << "idx " << i;
        if (next.idx != WindowedFuture::kNever) {
            EXPECT_EQ(next.time, accesses[next.idx].time)
                << "successor of " << i;
        }
    }
}

TEST(WindowedFuture, ExactForEveryWindowAndChunkSize)
{
    const Trace t = workload();
    const std::string pct = writeTracePct(t, "winfut_sizes.pct");
    struct Geometry
    {
        std::size_t window;
        std::size_t chunk;
    };
    // Windows 1, chunk-1, chunk, chunk+1 and "infinite" at chunk 64,
    // plus window 32 over chunk 100.
    const Geometry geometries[] = {
        {1, 64}, {63, 64}, {64, 64}, {65, 64},
        {std::size_t(1) << 20, 64}, {32, 100}};
    for (const Geometry &g : geometries) {
        WindowedFuture::Options opts;
        opts.windowEntries = g.window;
        opts.chunkAccesses = g.chunk;
        WindowedFuture fut(pct, opts);
        SCOPED_TRACE("window " + std::to_string(g.window) + " chunk " +
                     std::to_string(g.chunk));
        expectMatchesReference(t, fut);
    }
}

TEST(WindowedFuture, ChunkBoundariesInsideMultiBlockRequests)
{
    const Trace t = multiBlockWorkload();
    const std::string pct = writeTracePct(t, "winfut_multiblock.pct");
    // Chunks smaller than the largest request force the backward
    // pass to split a single record's expansion across chunks.
    for (const std::size_t chunk : {std::size_t(1), std::size_t(7),
                                    std::size_t(16)}) {
        WindowedFuture::Options opts;
        opts.windowEntries = 4;
        opts.chunkAccesses = chunk;
        WindowedFuture fut(pct, opts);
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        expectMatchesReference(t, fut);
    }
}

TEST(WindowedFuture, MoveTransfersTheStream)
{
    const Trace t = workload(13);
    const std::string pct = writeTracePct(t, "winfut_move.pct");
    WindowedFuture::Options opts;
    opts.windowEntries = 16;
    opts.chunkAccesses = 50;
    WindowedFuture a(pct, opts);
    const std::vector<BlockAccess> accesses = expandTrace(t);
    const FutureKnowledge ref = FutureKnowledge::build(accesses);

    // Consume a prefix, move, and continue on the target.
    const std::size_t half = ref.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        ASSERT_EQ(a.nextUse(i).idx, ref.nextUse(i).idx);
    WindowedFuture b(std::move(a));
    for (std::size_t i = half; i < ref.size(); ++i)
        ASSERT_EQ(b.nextUse(i).idx, ref.nextUse(i).idx);
}

} // namespace
} // namespace pacache
