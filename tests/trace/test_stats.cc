#include <gtest/gtest.h>

#include "trace/stats.hh"
#include "trace/synthetic.hh"
#include "tracefmt/trace_source.hh"

namespace pacache
{
namespace
{

TEST(TraceStatsTest, EmptyTrace)
{
    const TraceStats s = characterize(Trace{});
    EXPECT_EQ(s.requests, 0u);
    EXPECT_EQ(s.disks, 0u);
}

TEST(TraceStatsTest, CountsAndRatios)
{
    Trace t;
    t.append({0.0, 0, 1, 1, false});
    t.append({1.0, 1, 2, 1, true});
    t.append({2.0, 0, 1, 1, true});
    t.append({3.0, 0, 3, 1, false});
    const TraceStats s = characterize(t);
    EXPECT_EQ(s.requests, 4u);
    EXPECT_EQ(s.disks, 2u);
    EXPECT_DOUBLE_EQ(s.writeRatio, 0.5);
    EXPECT_DOUBLE_EQ(s.meanInterArrival, 1.0);
    EXPECT_EQ(s.perDiskRequests[0], 3u);
    EXPECT_EQ(s.perDiskRequests[1], 1u);
    EXPECT_EQ(s.uniqueBlocks, 3u); // disk0:{1,3}, disk1:{2}
}

TEST(TraceStatsTest, MultiBlockRequestsCountUniqueBlocks)
{
    Trace t;
    t.append({0.0, 0, 10, 4, false}); // blocks 10..13
    t.append({1.0, 0, 12, 4, false}); // blocks 12..15
    const TraceStats s = characterize(t);
    EXPECT_EQ(s.uniqueBlocks, 6u); // 10..15
}

TEST(TraceStatsTest, PerDiskInterArrival)
{
    Trace t;
    t.append({0.0, 0, 1, 1, false});
    t.append({2.0, 0, 2, 1, false});
    t.append({8.0, 0, 3, 1, false});
    const TraceStats s = characterize(t);
    EXPECT_DOUBLE_EQ(s.perDiskInterArrival[0], 4.0);
}

TEST(TraceStatsTest, SingleRequestDiskHasZeroInterArrival)
{
    Trace t;
    t.append({5.0, 0, 1, 1, false});
    const TraceStats s = characterize(t);
    EXPECT_DOUBLE_EQ(s.perDiskInterArrival[0], 0.0);
}

TEST(TraceStatsTest, StreamingOverloadMatchesMaterialized)
{
    SyntheticParams p;
    p.numRequests = 4000;
    p.numDisks = 7;
    p.writeRatio = 0.35;
    p.address.footprintBlocks = 250;
    p.seed = 19;
    const Trace t = generateSynthetic(p);

    const TraceStats want = characterize(t);
    tracefmt::MemorySource src(t);
    const TraceStats got = characterize(src);

    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.disks, want.disks);
    EXPECT_EQ(got.uniqueBlocks, want.uniqueBlocks);
    EXPECT_EQ(got.writeRatio, want.writeRatio);
    EXPECT_EQ(got.duration, want.duration);
    EXPECT_EQ(got.meanInterArrival, want.meanInterArrival);
    EXPECT_EQ(got.perDiskRequests, want.perDiskRequests);
    EXPECT_EQ(got.perDiskUnique, want.perDiskUnique);
    EXPECT_EQ(got.perDiskInterArrival, want.perDiskInterArrival);
}

TEST(TraceStatsTest, StreamingOverloadEmptySource)
{
    const Trace empty;
    tracefmt::MemorySource src(empty);
    const TraceStats s = characterize(src);
    EXPECT_EQ(s.requests, 0u);
    EXPECT_EQ(s.disks, 0u);
}

} // namespace
} // namespace pacache
