#include <gtest/gtest.h>

#include "cache/future.hh"

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

TEST(FutureKnowledgeTest, NextUseChains)
{
    // A B A C B A
    const auto accs = stream({1, 2, 1, 3, 2, 1});
    const auto fk = FutureKnowledge::build(accs);
    EXPECT_EQ(fk.nextUse(0).idx, 2u);
    EXPECT_EQ(fk.nextUse(1).idx, 4u);
    EXPECT_EQ(fk.nextUse(2).idx, 5u);
    EXPECT_EQ(fk.nextUse(3).idx, FutureKnowledge::kNever);
    EXPECT_EQ(fk.nextUse(4).idx, FutureKnowledge::kNever);
    EXPECT_EQ(fk.nextUse(5).idx, FutureKnowledge::kNever);
    // The next access's time rides along (access i arrives at i s).
    EXPECT_EQ(fk.nextUse(0).time, 2.0);
    EXPECT_EQ(fk.nextUse(1).time, 4.0);
    EXPECT_EQ(fk.nextUse(2).time, 5.0);
}

TEST(FutureKnowledgeTest, FirstReferences)
{
    const auto accs = stream({1, 2, 1, 3, 2, 1});
    const auto fk = FutureKnowledge::build(accs);
    EXPECT_TRUE(fk.isFirstReference(0));
    EXPECT_TRUE(fk.isFirstReference(1));
    EXPECT_FALSE(fk.isFirstReference(2));
    EXPECT_TRUE(fk.isFirstReference(3));
    EXPECT_FALSE(fk.isFirstReference(4));
    EXPECT_FALSE(fk.isFirstReference(5));
}

TEST(FutureKnowledgeTest, DisksAreDistinct)
{
    std::vector<BlockAccess> accs;
    accs.push_back({0.0, BlockId{0, 5}, false, 0});
    accs.push_back({1.0, BlockId{1, 5}, false, 1}); // same block, other disk
    accs.push_back({2.0, BlockId{0, 5}, false, 2});
    const auto fk = FutureKnowledge::build(accs);
    EXPECT_EQ(fk.nextUse(0).idx, 2u);
    EXPECT_EQ(fk.nextUse(1).idx, FutureKnowledge::kNever);
    EXPECT_TRUE(fk.isFirstReference(1));
}

TEST(FutureKnowledgeTest, EmptyStream)
{
    const auto fk = FutureKnowledge::build({});
    EXPECT_EQ(fk.size(), 0u);
}

} // namespace
} // namespace pacache
