#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/fifo.hh"

namespace pacache
{
namespace
{

BlockId
b(BlockNum n)
{
    return BlockId{0, n};
}

TEST(FifoPolicyTest, EvictsOldestInsertion)
{
    FifoPolicy p;
    Cache c(2, p);
    c.access(b(1), 0, 0);
    c.access(b(2), 1, 1);
    c.access(b(1), 2, 2); // hit: FIFO order unchanged
    const auto r = c.access(b(3), 3, 3);
    EXPECT_EQ(r.victim, b(1));
}

TEST(FifoPolicyTest, HitsDontExtendLifetime)
{
    FifoPolicy p;
    Cache c(3, p);
    std::size_t idx = 0;
    c.access(b(1), 0, idx++);
    c.access(b(2), 0, idx++);
    c.access(b(3), 0, idx++);
    for (int i = 0; i < 10; ++i)
        c.access(b(1), 0, idx++); // many hits on 1
    const auto r = c.access(b(4), 0, idx++);
    EXPECT_EQ(r.victim, b(1)); // still evicted first
}

TEST(FifoPolicyTest, RemoveMaintainsOrder)
{
    FifoPolicy p;
    Cache c(3, p);
    c.access(b(1), 0, 0);
    c.access(b(2), 0, 1);
    c.access(b(3), 0, 2);
    p.onRemove(b(1), 0); // first miss: slot 0
    // Cache is unaware of the external removal; verify policy order
    // directly via evict.
    EXPECT_EQ(p.evict(0, 0), b(2));
    EXPECT_EQ(p.evict(0, 0), b(3));
}

TEST(FifoPolicyTest, EvictEmptyPanics)
{
    FifoPolicy p;
    EXPECT_ANY_THROW(p.evict(0, 0));
}

TEST(FifoPolicyTest, RemoveUnknownPanics)
{
    FifoPolicy p;
    EXPECT_ANY_THROW(p.onRemove(b(9), 0));
}

} // namespace
} // namespace pacache
