#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/mq.hh"
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

TEST(MqPolicyTest, QueueForIsLogarithmic)
{
    MqPolicy p;
    EXPECT_EQ(p.queueFor(1), 0u);
    EXPECT_EQ(p.queueFor(2), 1u);
    EXPECT_EQ(p.queueFor(3), 1u);
    EXPECT_EQ(p.queueFor(4), 2u);
    EXPECT_EQ(p.queueFor(255), 7u);
    EXPECT_EQ(p.queueFor(1 << 20), 7u); // clamped at m-1
}

TEST(MqPolicyTest, FrequentBlocksOutliveInfrequent)
{
    MqPolicy p;
    Cache c(3, p);
    std::size_t idx = 0;
    c.access(b(1), 0, idx++);
    for (int i = 0; i < 8; ++i)
        c.access(b(1), 0, idx++); // block 1 is hot (queue ~3)
    c.access(b(2), 0, idx++);
    c.access(b(3), 0, idx++);
    const auto r = c.access(b(4), 0, idx++);
    // Eviction comes from the lowest queue: not the hot block.
    EXPECT_NE(r.victim, b(1));
}

TEST(MqPolicyTest, GhostRestoresFrequency)
{
    MqPolicy::Params params;
    params.ghostCapacity = 16;
    MqPolicy p(params);
    Cache c(2, p);
    std::size_t idx = 0;
    for (int i = 0; i < 10; ++i)
        c.access(b(1), 0, idx++); // hot
    c.access(b(2), 0, idx++);
    c.access(b(3), 0, idx++); // evicts 2 (cold), keeps hot 1... fills
    c.access(b(4), 0, idx++); // forces another eviction
    // Re-fetch block 1; even if it was evicted, the ghost remembers
    // its frequency and it lands in a high queue again. Exercise the
    // path and check consistency.
    c.access(b(1), 0, idx++);
    EXPECT_LE(c.size(), 2u);
}

TEST(MqPolicyTest, LifetimeDemotesIdleBlocks)
{
    MqPolicy::Params params;
    params.lifeTime = 4; // aggressive demotion
    MqPolicy p(params);
    Cache c(4, p);
    std::size_t idx = 0;
    for (int i = 0; i < 6; ++i)
        c.access(b(1), 0, idx++); // very hot early
    // Now a stream of other blocks ages block 1 out.
    for (BlockNum n = 10; n < 13; ++n)
        c.access(b(n), 0, idx++);
    for (int i = 0; i < 12; ++i)
        c.access(b(10 + (i % 3)), 0, idx++);
    const auto r = c.access(b(99), 0, idx++);
    // After expiring down the queues, the stale hot block goes.
    EXPECT_EQ(r.victim, b(1));
}

TEST(MqPolicyTest, RemoveUnknownPanics)
{
    MqPolicy p;
    EXPECT_ANY_THROW(p.onRemove(b(1), 0));
}

TEST(MqPolicyTest, EvictEmptyPanics)
{
    MqPolicy p;
    EXPECT_ANY_THROW(p.evict(0, 0));
}

TEST(MqPolicyTest, LongRandomRunStaysConsistent)
{
    MqPolicy p;
    Cache c(64, p);
    Rng rng(13);
    std::size_t idx = 0;
    ZipfSampler zipf(500, 1.0);
    for (int i = 0; i < 30000; ++i) {
        c.access(b(zipf.sample(rng)), 0, idx++);
        ASSERT_LE(c.size(), 64u);
    }
    // Zipf workload: MQ should capture the hot head.
    EXPECT_GT(c.stats().hitRatio(), 0.4);
}

} // namespace
} // namespace pacache
