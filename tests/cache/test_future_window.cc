/**
 * @file
 * Both WindowedFuture builds must reproduce a reference written here
 * from the definition (a std::map backward scan, as NaiveOracle
 * does), so neither fast build is the other's only check: the
 * in-memory pass, and the backward walk over the .pct file, whose
 * entries leave through the window in reverse order and are read
 * back through it, yield the *global* next-use chain for every
 * window size — including window 1 and windows smaller than one
 * multi-block request.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "cache/future.hh"
#include "cache/future_window.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/trace_source.hh"

#include "support/raw_pct.hh"

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

/** A few multi-block requests, so build flushes split a request. */
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

/** What a future must report for a trace, from the definition. */
struct Reference
{
    std::vector<FutureAccess> next; //!< per access: index and time
    std::vector<WindowedFuture::ColdSeed> cold; //!< ascending index
    std::size_t numDisks = 1;
    Time endTime = 0;
};

Reference
referenceOf(const Trace &t)
{
    const std::vector<BlockAccess> accesses = expandTrace(t);
    Reference ref;
    ref.next.assign(accesses.size(), {WindowedFuture::kNever, 0.0});
    std::map<BlockId, std::size_t> later; // block -> its next access
    for (std::size_t i = accesses.size(); i-- > 0;) {
        const BlockAccess &a = accesses[i];
        ref.numDisks =
            std::max<std::size_t>(ref.numDisks, a.block.disk + 1);
        ref.endTime = std::max(ref.endTime, a.time);
        auto [it, first_seen] = later.try_emplace(a.block, i);
        if (!first_seen) {
            ref.next[i] = {it->second, accesses[it->second].time};
            it->second = i;
        }
    }
    // `later` now holds each block's first access: the cold seeds.
    for (const auto &[block, first] : later)
        ref.cold.push_back({block.disk, first, accesses[first].time});
    std::sort(ref.cold.begin(), ref.cold.end(),
              [](const auto &a, const auto &b) { return a.idx < b.idx; });
    return ref;
}

/**
 * Drive @p fut through the whole access stream in consumption order
 * and compare its size, disk count, end time, every cold seed and
 * every next use — index and time — against the reference.
 */
void
expectMatchesReference(const Trace &t, WindowedFuture &fut)
{
    const Reference ref = referenceOf(t);
    ASSERT_TRUE(fut.built());
    ASSERT_EQ(fut.size(), ref.next.size());
    EXPECT_EQ(fut.numDisks(), ref.numDisks);
    EXPECT_EQ(fut.endTime(), ref.endTime);

    const auto cold = fut.takeColdSeeds();
    ASSERT_EQ(cold.size(), ref.cold.size());
    for (std::size_t k = 0; k < ref.cold.size(); ++k) {
        const WindowedFuture::ColdSeed &seed = cold[k];
        EXPECT_EQ(seed.idx, ref.cold[k].idx) << "cold " << k;
        EXPECT_EQ(seed.disk, ref.cold[k].disk) << "cold " << k;
        EXPECT_EQ(seed.time, ref.cold[k].time) << "cold " << k;
    }

    for (std::size_t i = 0; i < ref.next.size(); ++i) {
        const FutureAccess next = fut.nextUse(i);
        EXPECT_EQ(next.idx, ref.next[i].idx) << "idx " << i;
        EXPECT_EQ(next.time, ref.next[i].time) << "successor of " << i;
    }
}

TEST(WindowedFuture, BothBuildsMatchTheReference)
{
    const Trace traces[] = {workload(), multiBlockWorkload(), Trace{}};
    const char *names[] = {"synthetic", "multi-block", "empty"};
    for (std::size_t k = 0; k < 3; ++k) {
        const Trace &t = traces[k];
        SCOPED_TRACE(names[k]);
        {
            SCOPED_TRACE("in memory");
            WindowedFuture fut(expandTrace(t));
            expectMatchesReference(t, fut);
        }
        const std::string pct = writeTracePct(
            t, std::string("winfut_both_") + std::to_string(k) + ".pct");
        const std::size_t windows[] = {
            1, 7, std::max<std::size_t>(t.numBlockAccesses(), 1),
            WindowedFuture::Options{}.windowEntries};
        for (const std::size_t window : windows) {
            WindowedFuture::Options opts;
            opts.windowEntries = window;
            WindowedFuture fut(pct, opts);
            SCOPED_TRACE(".pct window " + std::to_string(window));
            expectMatchesReference(t, fut);
        }
    }
}

TEST(WindowedFuture, ExactForEveryWindowSize)
{
    // The window is the build's flush size and the replay's refill
    // size: 1, around a power of two, and past the trace length.
    const Trace t = workload();
    const std::string pct = writeTracePct(t, "winfut_sizes.pct");
    for (const std::size_t window :
         {std::size_t(1), std::size_t(32), std::size_t(63),
          std::size_t(64), std::size_t(65), std::size_t(1) << 20}) {
        WindowedFuture::Options opts;
        opts.windowEntries = window;
        WindowedFuture fut(pct, opts);
        SCOPED_TRACE("window " + std::to_string(window));
        expectMatchesReference(t, fut);
    }
}

TEST(WindowedFuture, FlushBoundariesInsideMultiBlockRequests)
{
    const Trace t = multiBlockWorkload();
    const std::string pct = writeTracePct(t, "winfut_multiblock.pct");
    // Windows 1, 4 and 7, below the largest request (8 blocks), and
    // 16 make the walk flush, and refills start, inside a record's
    // expansion.
    for (const std::size_t window : {std::size_t(1), std::size_t(4),
                                     std::size_t(7), std::size_t(16)}) {
        WindowedFuture::Options opts;
        opts.windowEntries = window;
        WindowedFuture fut(pct, opts);
        SCOPED_TRACE("window " + std::to_string(window));
        expectMatchesReference(t, fut);
    }
}

TEST(WindowedFuture, MoveTransfersTheStream)
{
    const Trace t = workload(13);
    const std::string pct = writeTracePct(t, "winfut_move.pct");
    WindowedFuture::Options opts;
    opts.windowEntries = 16;
    WindowedFuture a(pct, opts);
    const Reference ref = referenceOf(t);

    // Consume a prefix, move, and continue on the target.
    const std::size_t half = ref.next.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        ASSERT_EQ(a.nextUse(i).idx, ref.next[i].idx);
    WindowedFuture b(std::move(a));
    for (std::size_t i = half; i < ref.next.size(); ++i)
        ASSERT_EQ(b.nextUse(i).idx, ref.next[i].idx);
}

TEST(WindowedFuture, ColdSeedsAreHandedOverOnce)
{
    // OPG takes the seeds into its own sets and Belady drops them; a
    // future that kept a copy would hold one seed per unique block
    // for the whole replay.
    const Trace t = workload(7);
    const std::size_t seeds = referenceOf(t).cold.size();
    ASSERT_GT(seeds, 0u);
    WindowedFuture in_memory(expandTrace(t));
    WindowedFuture out_of_core(writeTracePct(t, "winfut_seeds.pct"));
    for (WindowedFuture *fut : {&in_memory, &out_of_core}) {
        EXPECT_EQ(fut->takeColdSeeds().size(), seeds);
        EXPECT_TRUE(fut->takeColdSeeds().empty());
    }
}

/** Open descriptors of this process. */
std::size_t
openDescriptors()
{
    const auto fds = std::filesystem::directory_iterator("/proc/self/fd");
    return static_cast<std::size_t>(std::distance(
        fds, std::filesystem::directory_iterator{}));
}

TEST(WindowedFuture, FailedBuildClosesItsSidecar)
{
    if (!std::filesystem::exists("/proc/self/fd"))
        GTEST_SKIP() << "no descriptor listing on this host";
    // The walk opens the sidecar before it meets the bad record (a
    // disk beyond the header's count), so the throw must close it.
    std::vector<test::RawRecord> recs;
    for (uint32_t i = 0; i < 100; ++i)
        recs.push_back({0.5 * i, i % 17, i % 4, 1, false});
    recs[40].disk = 4;
    const std::string pct =
        test::writeRawPct(test::tempPath("winfut_bad_disk.pct"), recs, 4u);
    const std::size_t before = openDescriptors();
    for (int k = 0; k < 3; ++k) {
        const std::string error =
            test::inputErrorOf([&] { WindowedFuture fut(pct); });
        EXPECT_NE(error.find("corrupt .pct record 40"),
                  std::string::npos)
            << error;
    }
    EXPECT_EQ(openDescriptors(), before);
}

} // namespace
} // namespace pacache
