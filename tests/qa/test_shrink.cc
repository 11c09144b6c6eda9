#include <gtest/gtest.h>

#include <algorithm>

#include "qa/naive_oracle.hh"
#include "qa/properties.hh"
#include "qa/shrink.hh"
#include "qa/trace_gen.hh"
#include "support/faulty_belady.hh"

namespace pacache::qa
{
namespace
{

bool
hasBlock(const FuzzCase &c, BlockNum block)
{
    for (std::size_t i = 0; i < c.trace.size(); ++i)
        if (c.trace[i].block == block)
            return true;
    return false;
}

FuzzCase
noisyCase()
{
    FuzzCase c;
    c.cfg.cacheBlocks = 64;
    c.cfg.crashStep = 17;
    c.cfg.theta = 29.6;
    c.cfg.wtduRegionBlocks = 32;
    for (int i = 0; i < 100; ++i)
        c.trace.append({static_cast<Time>(i), 0,
                        static_cast<BlockNum>(i == 57 ? 42 : 1000 + i),
                        3, i % 2 == 0});
    return c;
}

TEST(Shrink, ReducesToTheSingleRelevantRecord)
{
    const FuzzCase failing = noisyCase();
    const FailFn predicate = [](const FuzzCase &c) {
        return hasBlock(c, 42);
    };
    ASSERT_TRUE(predicate(failing));

    ShrinkStats stats;
    const FuzzCase shrunk = shrinkCase(failing, predicate, 2000, &stats);

    EXPECT_TRUE(predicate(shrunk));
    EXPECT_EQ(shrunk.trace.size(), 1u);
    EXPECT_EQ(shrunk.trace[0].block, 42u);
    EXPECT_GT(stats.attempts, 0u);
    EXPECT_GT(stats.accepted, 0u);
}

TEST(Shrink, SimplifiesSurvivingRecordsAndConfig)
{
    const FuzzCase failing = noisyCase();
    const FailFn predicate = [](const FuzzCase &c) {
        return hasBlock(c, 42);
    };
    const FuzzCase shrunk = shrinkCase(failing, predicate);

    // The surviving record is simplified to the smallest shape that
    // still fails: single-block read.
    ASSERT_EQ(shrunk.trace.size(), 1u);
    EXPECT_EQ(shrunk.trace[0].numBlocks, 1u);
    EXPECT_FALSE(shrunk.trace[0].write);
    // Config knobs irrelevant to the failure collapse too.
    EXPECT_EQ(shrunk.cfg.cacheBlocks, 1u);
    EXPECT_EQ(shrunk.cfg.crashStep, 0u);
    EXPECT_EQ(shrunk.cfg.theta, 0.0);
}

TEST(Shrink, PreservesTimeMonotonicityThroughout)
{
    const FuzzCase failing = noisyCase();
    const FailFn predicate = [](const FuzzCase &c) {
        // Reject any non-monotone intermediate outright: returning
        // false on violation means a buggy shrinker would get stuck
        // above 3 records, which the final assertion would catch.
        Time prev = 0;
        for (std::size_t i = 0; i < c.trace.size(); ++i) {
            if (c.trace[i].time < prev)
                return false;
            prev = c.trace[i].time;
        }
        std::size_t hits = 0;
        for (std::size_t i = 0; i < c.trace.size(); ++i)
            if (c.trace[i].block >= 1000)
                ++hits;
        return hits >= 3;
    };
    ASSERT_TRUE(predicate(failing));
    const FuzzCase shrunk = shrinkCase(failing, predicate);
    EXPECT_TRUE(predicate(shrunk));
    EXPECT_EQ(shrunk.trace.size(), 3u);
}

// The PR's acceptance scenario end to end: a deliberately injected
// fault (Belady evicting nearest-next instead of furthest) is caught
// by the differential property harness and shrunk to a tiny trace.
TEST(Shrink, InjectedBeladyFaultShrinksToAtMostTwentyRecords)
{
    const FailFn showsFault = [](const FuzzCase &c) {
        const std::vector<BlockAccess> accesses = expandTrace(c.trace);
        test::NearestNextPolicy buggy;
        buggy.prepareWindowed(WindowedFuture(accesses));
        NaiveOracle ref;
        ref.prepare(accesses);
        return !checkPolicyDifferential(c, buggy, ref).passed;
    };

    // Find a generated case that exposes the fault.
    CaseProfile profile;
    profile.maxRequests = 600;
    profile.maxCacheBlocks = 32;
    FuzzCase failing;
    bool found = false;
    for (uint64_t i = 0; i < 10 && !found; ++i) {
        failing = makeCase(4242, i, profile);
        found = showsFault(failing);
    }
    ASSERT_TRUE(found) << "no generated case exposed the fault";
    const std::size_t before = failing.trace.size();

    ShrinkStats stats;
    const FuzzCase shrunk =
        shrinkCase(failing, showsFault, 4000, &stats);

    EXPECT_TRUE(showsFault(shrunk));
    EXPECT_LE(shrunk.trace.size(), 20u)
        << "shrunk from " << before << " records in "
        << stats.attempts << " attempts";
    EXPECT_LT(shrunk.trace.size(), before);
}

} // namespace
} // namespace pacache::qa
