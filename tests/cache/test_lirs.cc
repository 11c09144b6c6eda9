#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/lirs.hh"
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

TEST(LirsPolicyTest, WarmupFillsLirSetFirst)
{
    LirsPolicy p(10, 0.2); // 8 LIR + 2 HIR
    Cache c(10, p);
    std::size_t idx = 0;
    for (BlockNum n = 0; n < 8; ++n)
        c.access(b(n), 0, idx++);
    EXPECT_EQ(p.lirCount(), 8u);
    EXPECT_EQ(p.hirResidentCount(), 0u);
    c.access(b(100), 0, idx++);
    EXPECT_EQ(p.lirCount(), 8u);
    EXPECT_EQ(p.hirResidentCount(), 1u);
    p.validate();
}

TEST(LirsPolicyTest, EvictsResidentHirNotLir)
{
    LirsPolicy p(4, 0.25); // 3 LIR + 1 HIR
    Cache c(4, p);
    std::size_t idx = 0;
    for (BlockNum n = 0; n < 3; ++n)
        c.access(b(n), 0, idx++); // LIR set {0,1,2}
    c.access(b(10), 0, idx++);    // HIR resident
    const auto r = c.access(b(11), 0, idx++);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, b(10)); // the HIR block, not any LIR block
    for (BlockNum n = 0; n < 3; ++n)
        EXPECT_TRUE(c.contains(b(n)));
    p.validate();
}

TEST(LirsPolicyTest, GhostHitPromotesToLir)
{
    LirsPolicy p(4, 0.25);
    Cache c(4, p);
    std::size_t idx = 0;
    for (BlockNum n = 0; n < 3; ++n)
        c.access(b(n), 0, idx++);
    c.access(b(10), 0, idx++); // HIR
    c.access(b(11), 0, idx++); // evicts 10 -> ghost in S
    const std::size_t lir_before = p.lirCount();
    c.access(b(10), 0, idx++); // ghost hit: 10 promoted to LIR
    EXPECT_EQ(p.lirCount(), lir_before); // promote + demote balance
    EXPECT_TRUE(c.contains(b(10)));
    p.validate();
}

TEST(LirsPolicyTest, ScanResistanceBeatsLru)
{
    // Hot set re-referenced between one-shot scan blocks: LIRS keeps
    // the hot set LIR while the scan churns the tiny HIR partition.
    const std::size_t cap = 16;
    auto hits = [&](auto &policy) {
        Cache c(cap, policy);
        std::size_t idx = 0;
        Rng rng(5);
        uint64_t hot_hits = 0;
        // Warm the hot set.
        for (BlockNum n = 0; n < 10; ++n)
            c.access(b(n), 0, idx++);
        for (int round = 0; round < 3000; ++round) {
            hot_hits += c.access(b(rng.below(10)), 0, idx++).hit;
            c.access(b(10000 + round), 0, idx++); // scan
        }
        return hot_hits;
    };
    LirsPolicy lirs(cap, 0.2);
    LruPolicy lru;
    EXPECT_GT(hits(lirs), hits(lru));
    lirs.validate();
}

TEST(LirsPolicyTest, HirResidentHitOutsideStackStaysHir)
{
    LirsPolicy p(4, 0.25, /*ghost_factor=*/1.25); // tiny history
    Cache c(4, p);
    std::size_t idx = 0;
    for (BlockNum n = 0; n < 3; ++n)
        c.access(b(n), 0, idx++);
    c.access(b(10), 0, idx++); // HIR resident
    // Flood the stack history so 10's entry is pruned/trimmed away,
    // then hit it: it must stay HIR (large recency).
    for (BlockNum n = 0; n < 3; ++n)
        for (int k = 0; k < 3; ++k)
            c.access(b(n), 0, idx++);
    c.access(b(10), 0, idx++);
    EXPECT_EQ(p.hirResidentCount(), 1u);
    p.validate();
}

TEST(LirsPolicyTest, RemoveKeepsStructuresConsistent)
{
    LirsPolicy p(6, 0.34);
    Cache c(6, p);
    std::size_t idx = 0;
    for (BlockNum n = 0; n < 6; ++n)
        c.access(b(n), 0, idx++);
    p.onRemove(b(0), 0); // a LIR block; block n missed into slot n
    p.validate();
    p.onRemove(b(5), 5); // likely HIR
    p.validate();
    // Policy can still evict the remaining blocks.
    const BlockId v = p.evict(0, 0);
    EXPECT_NE(v, b(0));
    EXPECT_NE(v, b(5));
    p.validate();
}

TEST(LirsPolicyTest, RemoveUnknownPanics)
{
    LirsPolicy p(4);
    EXPECT_ANY_THROW(p.onRemove(b(1), 0));
}

TEST(LirsPolicyTest, LongRandomRunStaysConsistent)
{
    const std::size_t cap = 64;
    LirsPolicy p(cap, 0.1);
    Cache c(cap, p);
    Rng rng(17);
    ZipfSampler zipf(600, 0.9);
    std::size_t idx = 0;
    for (int i = 0; i < 30000; ++i) {
        c.access(b(zipf.sample(rng)), 0, idx++);
        ASSERT_LE(c.size(), cap);
        if (i % 1000 == 0)
            p.validate();
    }
    p.validate();
    EXPECT_GT(c.stats().hitRatio(), 0.3);
}

TEST(LirsPolicyTest, GhostHistoryIsBounded)
{
    const std::size_t cap = 8;
    LirsPolicy p(cap, 0.25, 2.0);
    Cache c(cap, p);
    std::size_t idx = 0;
    // Endless one-shot stream creates a ghost per eviction; history
    // must stay bounded (validated internally via the stack bound).
    for (BlockNum n = 0; n < 5000; ++n)
        c.access(b(n), 0, idx++);
    p.validate();
}

} // namespace
} // namespace pacache
