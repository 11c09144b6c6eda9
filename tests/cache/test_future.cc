#include <gtest/gtest.h>

#include "cache/future.hh"
#include "cache/future_window.hh"

namespace pacache
{
namespace
{

std::vector<BlockAccess>
stream(std::initializer_list<BlockNum> blocks)
{
    std::vector<BlockAccess> out;
    Time t = 0;
    for (BlockNum b : blocks) {
        out.push_back(BlockAccess{t, BlockId{0, b}, false, out.size()});
        t += 1.0;
    }
    return out;
}

TEST(ExpandTrace, SplitsMultiBlockRequests)
{
    Trace t;
    t.append({0.0, 2, 100, 3, true});
    t.append({1.0, 0, 7, 1, false});
    const auto accs = expandTrace(t);
    ASSERT_EQ(accs.size(), 4u);
    EXPECT_EQ(accs[0].block, (BlockId{2, 100}));
    EXPECT_EQ(accs[1].block, (BlockId{2, 101}));
    EXPECT_EQ(accs[2].block, (BlockId{2, 102}));
    EXPECT_TRUE(accs[0].write);
    EXPECT_EQ(accs[0].traceIndex, 0u);
    EXPECT_EQ(accs[3].traceIndex, 1u);
    EXPECT_FALSE(accs[3].write);
}

/** Consume @p fut's whole stream, in order, as the replay does. */
std::vector<FutureAccess>
drain(WindowedFuture &fut)
{
    std::vector<FutureAccess> out;
    for (std::size_t i = 0; i < fut.size(); ++i)
        out.push_back(fut.nextUse(i));
    return out;
}

TEST(InMemoryFuture, NextUseChains)
{
    // A B A C B A
    WindowedFuture fut(stream({1, 2, 1, 3, 2, 1}));
    const auto next = drain(fut);
    ASSERT_EQ(next.size(), 6u);
    EXPECT_EQ(next[0].idx, 2u);
    EXPECT_EQ(next[1].idx, 4u);
    EXPECT_EQ(next[2].idx, 5u);
    EXPECT_EQ(next[3].idx, WindowedFuture::kNever);
    EXPECT_EQ(next[4].idx, WindowedFuture::kNever);
    EXPECT_EQ(next[5].idx, WindowedFuture::kNever);
    // The next access's time rides along (access i arrives at i s).
    EXPECT_EQ(next[0].time, 2.0);
    EXPECT_EQ(next[1].time, 4.0);
    EXPECT_EQ(next[2].time, 5.0);
}

TEST(InMemoryFuture, FirstReferences)
{
    // The cold seeds are the first references, ascending by index,
    // each with its disk and its own arrival time.
    WindowedFuture fut(stream({1, 2, 1, 3, 2, 1}));
    const auto seeds = fut.takeColdSeeds();
    ASSERT_EQ(seeds.size(), 3u);
    const std::size_t want[] = {0, 1, 3};
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(seeds[k].idx, want[k]);
        EXPECT_EQ(seeds[k].disk, 0u);
        EXPECT_EQ(seeds[k].time, static_cast<Time>(want[k]));
    }
}

TEST(InMemoryFuture, DisksAreDistinct)
{
    std::vector<BlockAccess> accs;
    accs.push_back({0.0, BlockId{0, 5}, false, 0});
    accs.push_back({1.0, BlockId{1, 5}, false, 1}); // same block, other disk
    accs.push_back({2.0, BlockId{0, 5}, false, 2});
    WindowedFuture fut(accs);
    EXPECT_EQ(fut.numDisks(), 2u);
    const auto next = drain(fut);
    EXPECT_EQ(next[0].idx, 2u);
    EXPECT_EQ(next[1].idx, WindowedFuture::kNever);
    const auto seeds = fut.takeColdSeeds();
    ASSERT_EQ(seeds.size(), 2u);
    EXPECT_EQ(seeds[1].idx, 1u);
    EXPECT_EQ(seeds[1].disk, 1u);
}

TEST(InMemoryFuture, EmptyStream)
{
    WindowedFuture fut(std::vector<BlockAccess>{});
    EXPECT_TRUE(fut.built());
    EXPECT_EQ(fut.size(), 0u);
    EXPECT_EQ(fut.numDisks(), 1u);
    EXPECT_TRUE(fut.takeColdSeeds().empty());
    EXPECT_ANY_THROW(fut.nextUse(0));
}

} // namespace
} // namespace pacache
