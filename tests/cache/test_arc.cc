#include <gtest/gtest.h>

#include "cache/arc.hh"
#include "cache/cache.hh"
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

TEST(ArcPolicyTest, BasicResidencyRespected)
{
    ArcPolicy p(2);
    Cache c(2, p);
    std::size_t idx = 0;
    c.access(b(1), 0, idx++);
    c.access(b(2), 0, idx++);
    const auto r = c.access(b(3), 0, idx++);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(c.size(), 2u);
}

TEST(ArcPolicyTest, HitPromotesToT2)
{
    ArcPolicy p(4);
    Cache c(4, p);
    std::size_t idx = 0;
    c.access(b(1), 0, idx++);
    EXPECT_EQ(p.t1Size(), 1u);
    EXPECT_EQ(p.t2Size(), 0u);
    c.access(b(1), 0, idx++);
    EXPECT_EQ(p.t1Size(), 0u);
    EXPECT_EQ(p.t2Size(), 1u);
}

TEST(ArcPolicyTest, GhostHitAdaptsTarget)
{
    ArcPolicy p(2);
    Cache c(2, p);
    std::size_t idx = 0;
    c.access(b(1), 0, idx++);
    c.access(b(2), 0, idx++);
    c.access(b(2), 0, idx++); // hit: 2 moves to T2, T1={1}
    c.access(b(3), 0, idx++); // evicts 1 into B1 (ghost survives:
                              // |T1|+|B1| = 2 = c)
    const double before = p.targetT1();
    c.access(b(1), 0, idx++); // B1 ghost hit: p grows
    EXPECT_GT(p.targetT1(), before);
    // Ghost-hit re-fetch goes to T2.
    EXPECT_GE(p.t2Size(), 1u);
}

TEST(ArcPolicyTest, ScanResistanceBeatsLru)
{
    // Hot set of 8 blocks re-referenced constantly, plus a one-shot
    // scan; ARC should keep more of the hot set than plain LRU.
    const std::size_t cap = 16;
    auto run_hits = [&](auto make_policy) {
        auto policy = make_policy();
        Cache c(cap, *policy);
        std::size_t idx = 0;
        uint64_t hot_hits = 0;
        Rng rng(3);
        for (int round = 0; round < 3000; ++round) {
            const BlockNum hot = rng.below(8);
            hot_hits += c.access(b(hot), 0, idx++).hit;
            // interleaved scan block, never reused
            c.access(b(100000 + round), 0, idx++);
        }
        return hot_hits;
    };
    const uint64_t arc_hits = run_hits(
        [&] { return std::make_unique<ArcPolicy>(cap); });
    const uint64_t lru_hits = run_hits(
        [&] { return std::make_unique<LruPolicy>(); });
    EXPECT_GT(arc_hits, lru_hits);
}

TEST(ArcPolicyTest, RemoveLeavesConsistentState)
{
    ArcPolicy p(4);
    Cache c(4, p);
    std::size_t idx = 0;
    for (BlockNum n = 1; n <= 4; ++n)
        c.access(b(n), 0, idx++);
    c.access(b(2), 0, idx++); // promote 2 to T2
    p.onRemove(b(2), 1); // block n missed into slot n - 1
    p.onRemove(b(1), 0);
    // Evictions still produce distinct remaining blocks.
    const BlockId v1 = p.evict(0, 0);
    const BlockId v2 = p.evict(0, 0);
    EXPECT_NE(v1, v2);
}

TEST(ArcPolicyTest, RemoveUnknownPanics)
{
    ArcPolicy p(2);
    EXPECT_ANY_THROW(p.onRemove(b(5), 0));
}

TEST(ArcPolicyTest, LongRandomRunStaysConsistent)
{
    const std::size_t cap = 32;
    ArcPolicy p(cap);
    Cache c(cap, p);
    Rng rng(11);
    std::size_t idx = 0;
    for (int i = 0; i < 20000; ++i) {
        c.access(b(rng.below(200)), 0, idx++);
        ASSERT_LE(c.size(), cap);
        ASSERT_EQ(p.t1Size() + p.t2Size(), c.size());
    }
    EXPECT_GT(c.stats().hits, 0u);
}

} // namespace
} // namespace pacache
