#include <gtest/gtest.h>

#include "cache/arc.hh"
#include "cache/cache.hh"
#include "core/pa_lru.hh"
#include "util/random.hh"

namespace pacache
{
namespace
{

/** A classifier driven to a fixed state for testing. */
PaParams
fastParams()
{
    PaParams p;
    p.epochLength = 100.0;
    p.intervalThreshold = 10.0;
    return p;
}

/** Make disk @p d priority by feeding one warm, long-interval epoch. */
void
makePriority(PaClassifier &c, DiskId d)
{
    const BlockId blk{d, 99999};
    Time t = 0;
    for (int i = 0; i < 4; ++i) {
        c.onRequest(d, blk, t);
        c.onDiskAccess(d, t);
        t += 30.0;
    }
    c.onRequest(d, blk, 130.0);
    ASSERT_TRUE(c.isPriority(d));
}

TEST(PaLru, EvictsFromRegularStackFirst)
{
    PaClassifier cls(2, fastParams());
    makePriority(cls, 1);
    PaLruPolicy p(cls);
    Cache c(3, p);
    std::size_t idx = 0;
    c.access(BlockId{1, 10}, 0, idx++); // priority disk
    c.access(BlockId{0, 20}, 0, idx++); // regular disk
    c.access(BlockId{1, 11}, 0, idx++); // priority disk
    const auto r = c.access(BlockId{0, 21}, 0, idx++);
    // Even though (1,10) is the global LRU, the regular block goes.
    EXPECT_EQ(r.victim, (BlockId{0, 20}));
    EXPECT_TRUE(c.contains(BlockId{1, 10}));
}

TEST(PaLru, FallsBackToPriorityStackWhenRegularEmpty)
{
    PaClassifier cls(2, fastParams());
    makePriority(cls, 1);
    PaLruPolicy p(cls);
    Cache c(2, p);
    std::size_t idx = 0;
    c.access(BlockId{1, 1}, 0, idx++);
    c.access(BlockId{1, 2}, 0, idx++);
    const auto r = c.access(BlockId{1, 3}, 0, idx++);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, (BlockId{1, 1})); // LRU of the priority stack
}

TEST(PaLru, WithinStackOrderIsLru)
{
    PaClassifier cls(1, fastParams());
    PaLruPolicy p(cls);
    Cache c(2, p);
    std::size_t idx = 0;
    c.access(BlockId{0, 1}, 0, idx++);
    c.access(BlockId{0, 2}, 0, idx++);
    c.access(BlockId{0, 1}, 0, idx++); // 1 becomes MRU
    const auto r = c.access(BlockId{0, 3}, 0, idx++);
    EXPECT_EQ(r.victim, (BlockId{0, 2}));
}

TEST(PaLru, StackSizesTrackClassification)
{
    PaClassifier cls(2, fastParams());
    makePriority(cls, 1);
    PaLruPolicy p(cls);
    Cache c(8, p);
    std::size_t idx = 0;
    c.access(BlockId{0, 1}, 0, idx++);
    c.access(BlockId{1, 1}, 0, idx++);
    c.access(BlockId{1, 2}, 0, idx++);
    EXPECT_EQ(p.regularSize(), 1u);
    EXPECT_EQ(p.prioritySize(), 2u);
}

TEST(PaLru, HitMigratesAfterReclassification)
{
    // Block inserted while its disk was regular moves to the priority
    // stack when touched after the disk became priority.
    PaClassifier cls(1, fastParams());
    PaLruPolicy p(cls);
    Cache c(4, p);
    std::size_t idx = 0;
    c.access(BlockId{0, 5}, 0, idx++);
    EXPECT_EQ(p.regularSize(), 1u);
    makePriority(cls, 0);
    c.access(BlockId{0, 5}, 0, idx++); // hit migrates
    EXPECT_EQ(p.regularSize(), 0u);
    EXPECT_EQ(p.prioritySize(), 1u);
}

TEST(PaLru, RemoveUnknownPanics)
{
    PaClassifier cls(1, fastParams());
    PaLruPolicy p(cls);
    EXPECT_ANY_THROW(p.onRemove(BlockId{0, 1}, 0));
}

TEST(PaDual, BehavesLikePaLruWithLruBases)
{
    PaClassifier cls(2, fastParams());
    makePriority(cls, 1);
    PaDualPolicy p(cls, std::make_unique<LruPolicy>(),
                   std::make_unique<LruPolicy>(), "PA-LRU(dual)");
    Cache c(3, p);
    std::size_t idx = 0;
    c.access(BlockId{1, 10}, 0, idx++);
    c.access(BlockId{0, 20}, 0, idx++);
    c.access(BlockId{1, 11}, 0, idx++);
    const auto r = c.access(BlockId{0, 21}, 0, idx++);
    EXPECT_EQ(r.victim, (BlockId{0, 20}));
    EXPECT_EQ(std::string(p.name()), "PA-LRU(dual)");

    // Differential run: one classifier with short epochs drives both
    // policies through a long random stream in lockstep. Every 150 s
    // the busy and the quiet disks trade places, so classes flip both
    // ways and hits migrate between stacks (PaLruPolicy) and between
    // sub-policies (PaDualPolicy) over the same slots.
    PaParams params;
    params.epochLength = 50.0;
    params.intervalThreshold = 5.0;
    PaClassifier shared(4, params);
    PaDualPolicy dual(shared, std::make_unique<LruPolicy>(),
                      std::make_unique<LruPolicy>(), "PA-LRU(dual)");
    PaLruPolicy direct(shared);
    Cache dual_cache(24, dual);
    Cache direct_cache(24, direct);
    Rng rng(7);
    std::size_t evictions = 0, to_priority = 0, to_regular = 0;
    Time t = 0;
    for (std::size_t i = 0; i < 40000; ++i) {
        t += 0.2;
        // Disks {0, 1} or {2, 3} take 95% of the requests.
        const uint64_t busy = (static_cast<uint64_t>(t / 150.0) % 2) * 2;
        const uint64_t pick = rng.below(20) == 0
                                  ? (busy + 2 + rng.below(2)) % 4
                                  : busy + rng.below(2);
        const DiskId disk = static_cast<DiskId>(pick);
        const BlockId blk{disk, rng.below(16)};
        bool before[4];
        for (DiskId d = 0; d < 4; ++d)
            before[d] = shared.isPriority(d);
        shared.onRequest(disk, blk, t);
        for (DiskId d = 0; d < 4; ++d) {
            to_priority += !before[d] && shared.isPriority(d);
            to_regular += before[d] && !shared.isPriority(d);
        }
        const CacheResult a = dual_cache.access(blk, t, i);
        const CacheResult b = direct_cache.access(blk, t, i);
        ASSERT_EQ(a.hit, b.hit) << "access " << i;
        ASSERT_EQ(a.evicted, b.evicted) << "access " << i;
        if (a.evicted) {
            ASSERT_EQ(a.victim, b.victim) << "eviction " << evictions;
            ++evictions;
        }
        if (!a.hit)
            shared.onDiskAccess(disk, t);
        ASSERT_EQ(dual.regularSize(), direct.regularSize()) << i;
        ASSERT_EQ(dual.prioritySize(), direct.prioritySize()) << i;
    }
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(to_priority, 0u);
    EXPECT_GT(to_regular, 0u);
}

TEST(PaDual, WrapsArc)
{
    PaClassifier cls(2, fastParams());
    makePriority(cls, 1);
    PaDualPolicy p(cls, std::make_unique<ArcPolicy>(4),
                   std::make_unique<ArcPolicy>(4), "PA-ARC");
    Cache c(4, p);
    std::size_t idx = 0;
    c.access(BlockId{1, 1}, 0, idx++);
    c.access(BlockId{0, 1}, 0, idx++);
    c.access(BlockId{0, 2}, 0, idx++);
    c.access(BlockId{0, 3}, 0, idx++);
    const auto r = c.access(BlockId{0, 4}, 0, idx++);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim.disk, 0u); // regular side evicted
    EXPECT_TRUE(c.contains(BlockId{1, 1}));
    EXPECT_EQ(p.prioritySize(), 1u);
}

TEST(PaDual, MigratesOnReclassification)
{
    PaClassifier cls(1, fastParams());
    PaDualPolicy p(cls, std::make_unique<LruPolicy>(),
                   std::make_unique<LruPolicy>(), "PA-LRU(dual)");
    Cache c(4, p);
    std::size_t idx = 0;
    c.access(BlockId{0, 5}, 0, idx++);
    EXPECT_EQ(p.regularSize(), 1u);
    makePriority(cls, 0);
    c.access(BlockId{0, 5}, 0, idx++);
    EXPECT_EQ(p.regularSize(), 0u);
    EXPECT_EQ(p.prioritySize(), 1u);
}

} // namespace
} // namespace pacache
