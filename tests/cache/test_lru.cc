#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hh"
#include "cache/lru.hh"
#include "util/random.hh"

namespace pacache
{
namespace
{

BlockId
b(BlockNum n)
{
    return BlockId{0, n};
}

TEST(LruStackTest, TouchMovesToMru)
{
    LruStack s;
    s.touch(b(1));
    s.touch(b(2));
    s.touch(b(1)); // 1 is MRU again
    EXPECT_EQ(s.popLru(), b(2));
    EXPECT_EQ(s.popLru(), b(1));
    EXPECT_TRUE(s.empty());
}

TEST(LruStackTest, RemoveSpecific)
{
    LruStack s;
    s.touch(b(1));
    s.touch(b(2));
    s.touch(b(3));
    EXPECT_TRUE(s.remove(b(2)));
    EXPECT_FALSE(s.remove(b(2)));
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.popLru(), b(1));
}

TEST(LruStackTest, ContainsTracksMembership)
{
    LruStack s;
    EXPECT_FALSE(s.contains(b(7)));
    s.touch(b(7));
    EXPECT_TRUE(s.contains(b(7)));
}

TEST(LruStackTest, PopEmptyPanics)
{
    LruStack s;
    EXPECT_ANY_THROW(s.popLru());
}

TEST(LruStackTest, ChurnMatchesAReferenceList)
{
    // Touch, remove and pop at random against a plain vector kept in
    // MRU-first order: recycled entry indices must never leak order.
    LruStack s;
    std::vector<BlockId> model;
    Rng rng(17);
    for (int step = 0; step < 20000; ++step) {
        const BlockId blk = b(rng.below(48));
        const auto it = std::find(model.begin(), model.end(), blk);
        const uint64_t op = rng.below(10);
        if (op < 6) {
            s.touch(blk);
            if (it != model.end())
                model.erase(it);
            model.insert(model.begin(), blk);
        } else if (op < 8) {
            EXPECT_EQ(s.remove(blk), it != model.end());
            if (it != model.end())
                model.erase(it);
        } else if (!model.empty()) {
            ASSERT_EQ(s.popLru(), model.back());
            model.pop_back();
        }
        ASSERT_EQ(s.size(), model.size());
        ASSERT_EQ(s.contains(blk),
                  std::find(model.begin(), model.end(), blk) !=
                      model.end());
    }
    while (!model.empty()) {
        ASSERT_EQ(s.popLru(), model.back());
        model.pop_back();
    }
    EXPECT_TRUE(s.empty());
}

TEST(LruPolicyTest, EvictsLeastRecentlyUsed)
{
    LruPolicy p;
    Cache c(2, p);
    c.access(b(1), 0, 0);
    c.access(b(2), 1, 1);
    c.access(b(1), 2, 2);        // 2 is now LRU
    const auto r = c.access(b(3), 3, 3);
    EXPECT_EQ(r.victim, b(2));
}

TEST(LruPolicyTest, SequentialScanEvictsInOrder)
{
    LruPolicy p;
    Cache c(3, p);
    std::size_t idx = 0;
    for (BlockNum n = 0; n < 10; ++n) {
        const auto r = c.access(b(n), static_cast<Time>(n), idx++);
        if (n >= 3) {
            EXPECT_EQ(r.victim, b(n - 3));
        }
    }
}

TEST(LruPolicyTest, OnRemoveUnknownPanics)
{
    LruPolicy p;
    EXPECT_ANY_THROW(p.onRemove(b(1), 0));
    Cache c(2, p);
    c.access(b(1), 0, 0); // slot 0
    EXPECT_ANY_THROW(p.onRemove(b(2), 0)); // slot 0 holds another block
    EXPECT_ANY_THROW(p.onRemove(b(1), 1)); // slot 1 is unused
    p.onRemove(b(1), 0);
    EXPECT_ANY_THROW(p.evict(0, 0));
}

TEST(LruPolicyTest, LoopLargerThanCacheAlwaysMisses)
{
    // Classic LRU pathology: cyclic access over capacity+1 blocks.
    LruPolicy p;
    Cache c(3, p);
    std::size_t idx = 0;
    for (int round = 0; round < 5; ++round) {
        for (BlockNum n = 0; n < 4; ++n) {
            const Time now = static_cast<Time>(idx);
            c.access(b(n), now, idx++);
        }
    }
    EXPECT_EQ(c.stats().hits, 0u);
}

} // namespace
} // namespace pacache
