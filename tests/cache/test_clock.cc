#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/clock.hh"

namespace pacache
{
namespace
{

BlockId
b(BlockNum n)
{
    return BlockId{0, n};
}

TEST(ClockPolicyTest, SecondChanceProtectsReferenced)
{
    ClockPolicy p;
    Cache c(3, p);
    std::size_t idx = 0;
    c.access(b(1), 0, idx++);
    c.access(b(2), 0, idx++);
    c.access(b(3), 0, idx++);
    c.access(b(1), 0, idx++); // sets 1's reference bit
    const auto r = c.access(b(4), 0, idx++);
    // 1 gets a second chance; some non-referenced block is evicted.
    EXPECT_NE(r.victim, b(1));
    EXPECT_TRUE(c.contains(b(1)));
}

TEST(ClockPolicyTest, UnreferencedEvictedEventually)
{
    ClockPolicy p;
    Cache c(2, p);
    std::size_t idx = 0;
    c.access(b(1), 0, idx++);
    c.access(b(2), 0, idx++);
    c.access(b(3), 0, idx++); // evicts one of 1/2
    c.access(b(4), 0, idx++); // evicts the other
    EXPECT_FALSE(c.contains(b(1)));
    EXPECT_FALSE(c.contains(b(2)));
}

TEST(ClockPolicyTest, AllReferencedDegradesToSweep)
{
    ClockPolicy p;
    Cache c(3, p);
    std::size_t idx = 0;
    for (BlockNum n = 1; n <= 3; ++n)
        c.access(b(n), 0, idx++);
    for (BlockNum n = 1; n <= 3; ++n)
        c.access(b(n), 0, idx++); // everything referenced
    const auto r = c.access(b(4), 0, idx++);
    // The hand clears bits and evicts some block; the cache keeps
    // working and stays at capacity.
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(c.size(), 3u);
}

TEST(ClockPolicyTest, SurvivesManyRemovals)
{
    ClockPolicy p;
    Cache c(4, p);
    std::size_t idx = 0;
    for (BlockNum n = 0; n < 4; ++n)
        c.access(b(n), 0, idx++);
    p.onRemove(b(2), 2); // block n missed into slot n
    p.onRemove(b(0), 0);
    // The ring still evicts the remaining blocks without tripping.
    const BlockId v1 = p.evict(0, 0);
    const BlockId v2 = p.evict(0, 0);
    EXPECT_NE(v1, v2);
    EXPECT_TRUE(v1 == b(1) || v1 == b(3));
    EXPECT_TRUE(v2 == b(1) || v2 == b(3));
}

TEST(ClockPolicyTest, EvictEmptyPanics)
{
    ClockPolicy p;
    EXPECT_ANY_THROW(p.evict(0, 0));
}

TEST(ClockPolicyTest, HitRatioBetweenFifoAndAlwaysMiss)
{
    // On a mixed workload CLOCK should at least beat never-hitting.
    ClockPolicy p;
    Cache c(8, p);
    std::size_t idx = 0;
    for (int round = 0; round < 50; ++round) {
        c.access(b(round % 4), 0, idx++);       // hot set fits
        c.access(b(100 + round), 0, idx++);     // cold stream
    }
    EXPECT_GT(c.stats().hits, 25u);
}

} // namespace
} // namespace pacache
