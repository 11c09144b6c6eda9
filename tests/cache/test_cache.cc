#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "cache/cache.hh"
#include "cache/clock.hh"
#include "cache/fifo.hh"
#include "cache/lru.hh"
#include "util/random.hh"

namespace pacache
{
namespace
{

BlockId
b(BlockNum n, DiskId d = 0)
{
    return BlockId{d, n};
}

struct CacheFixture : ::testing::Test
{
    LruPolicy policy;
    Cache cache{3, policy};
    std::size_t idx = 0;

    CacheResult
    access(BlockNum n, DiskId d = 0)
    {
        const Time now = static_cast<Time>(idx);
        return cache.access(b(n, d), now, idx++);
    }
};

TEST_F(CacheFixture, MissThenHit)
{
    EXPECT_FALSE(access(1).hit);
    EXPECT_TRUE(access(1).hit);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().accesses, 2u);
}

TEST_F(CacheFixture, CapacityEnforced)
{
    access(1);
    access(2);
    access(3);
    EXPECT_EQ(cache.size(), 3u);
    const auto r = access(4);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(r.victim, b(1)); // LRU victim
    EXPECT_FALSE(cache.contains(b(1)));
}

TEST_F(CacheFixture, NoEvictionBelowCapacity)
{
    EXPECT_FALSE(access(1).evicted);
    EXPECT_FALSE(access(2).evicted);
    EXPECT_FALSE(access(3).evicted);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST_F(CacheFixture, DirtyFlagLifecycle)
{
    access(1);
    EXPECT_FALSE(cache.isDirty(b(1)));
    cache.markDirty(b(1));
    EXPECT_TRUE(cache.isDirty(b(1)));
    EXPECT_EQ(cache.dirtyCount(0), 1u);
    cache.markClean(b(1));
    EXPECT_FALSE(cache.isDirty(b(1)));
    EXPECT_EQ(cache.dirtyCount(0), 0u);
}

TEST_F(CacheFixture, VictimDirtyReported)
{
    access(1);
    cache.markDirty(b(1));
    access(2);
    access(3);
    const auto r = access(4);
    EXPECT_TRUE(r.evicted);
    EXPECT_TRUE(r.victimDirty);
    EXPECT_EQ(cache.dirtyCount(0), 0u); // flag dropped with the block
}

TEST_F(CacheFixture, LoggedFlagLifecycle)
{
    access(5);
    cache.markLogged(b(5));
    EXPECT_TRUE(cache.isLogged(b(5)));
    EXPECT_EQ(cache.loggedBlocksOf(0).size(), 1u);
    cache.clearLogged(b(5));
    EXPECT_FALSE(cache.isLogged(b(5)));
}

TEST_F(CacheFixture, VictimLoggedReported)
{
    access(1);
    cache.markLogged(b(1));
    access(2);
    access(3);
    const auto r = access(4);
    EXPECT_TRUE(r.evicted);
    EXPECT_TRUE(r.victimLogged);
    EXPECT_TRUE(cache.loggedBlocksOf(0).empty());
}

TEST_F(CacheFixture, DirtySetsArePerDisk)
{
    access(1, 0);
    access(1, 1);
    cache.markDirty(b(1, 0));
    cache.markDirty(b(1, 1));
    EXPECT_EQ(cache.dirtyCount(0), 1u);
    EXPECT_EQ(cache.dirtyCount(1), 1u);
    EXPECT_EQ(cache.dirtyBlocksOf(0)[0].disk, 0u);
    EXPECT_EQ(cache.dirtyBlocksOf(1)[0].disk, 1u);
}

TEST_F(CacheFixture, ColdMissCountIsExact)
{
    access(1);
    access(2);
    access(1); // hit
    access(4);
    access(1); // block 1 still resident
    access(2); // block 2 still resident
    EXPECT_EQ(cache.stats().coldMisses, 3u); // 1, 2, 4
}

TEST_F(CacheFixture, ReaccessAfterEvictionIsWarmMiss)
{
    access(1);
    access(2);
    access(3);
    access(4); // evicts 1
    const auto r = access(1);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(cache.stats().coldMisses, 4u); // the re-access is warm
}

TEST_F(CacheFixture, PrefetchHiddenFirstAccessStillCountsCold)
{
    // coldMisses counts first-ever demand accesses: a block whose
    // first access hits because insert() prefetched it beforehand
    // still counts, exactly once.
    cache.insert(b(7), 0, idx);
    EXPECT_EQ(cache.stats().coldMisses, 0u); // a prefetch is no access
    EXPECT_TRUE(access(7).hit);
    EXPECT_EQ(cache.stats().coldMisses, 1u);
    access(7);
    EXPECT_EQ(cache.stats().coldMisses, 1u);
    access(1);
    EXPECT_EQ(cache.stats().coldMisses, 2u);
}

TEST_F(CacheFixture, PackedKeyOverflowPanics)
{
    // Block numbers at or above 2^48 would alias another block in the
    // packed-key residency map; they must fail loudly instead.
    EXPECT_ANY_THROW(access(BlockNum{1} << 48));
}

TEST_F(CacheFixture, MarkDirtyOnNonResidentPanics)
{
    EXPECT_ANY_THROW(cache.markDirty(b(99)));
}

TEST(CacheBasics, ZeroCapacityRejected)
{
    LruPolicy p;
    EXPECT_ANY_THROW(Cache(0, p));
}

TEST(CacheBasics, HitRatioComputation)
{
    LruPolicy p;
    Cache c(2, p);
    c.access(b(1), 0, 0);
    c.access(b(1), 1, 1);
    c.access(b(1), 2, 2);
    c.access(b(2), 3, 3);
    EXPECT_DOUBLE_EQ(c.stats().hitRatio(), 0.5);
}

// ---- slot bookkeeping against a reference model --------------------

std::unique_ptr<ReplacementPolicy>
makeSlotPolicy(int which)
{
    if (which == 0)
        return std::make_unique<LruPolicy>();
    if (which == 1)
        return std::make_unique<FifoPolicy>();
    return std::make_unique<ClockPolicy>();
}

/**
 * Random access / insert / markDirty / markClean / markLogged /
 * clearLogged over three disks on a small cache, checked after every
 * step against a std::map of the resident blocks and their flags:
 * the per-disk dirty and logged sets, dirtyCount, isDirty, isLogged
 * and every victim's reported flags.
 */
TEST(CacheModel, SlotBookkeepingMatchesAReferenceModel)
{
    constexpr std::size_t kCapacity = 8;
    constexpr DiskId kDisks = 3;
    constexpr BlockNum kBlocksPerDisk = 7;
    struct Flags
    {
        bool dirty = false;
        bool logged = false;
    };

    for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        auto policy = makeSlotPolicy(static_cast<int>(seed % 3));
        Cache cache(kCapacity, *policy);
        std::map<BlockId, Flags> model;
        Rng rng(seed);
        auto random_block = [&] {
            return BlockId{static_cast<DiskId>(rng.below(kDisks)),
                           rng.below(kBlocksPerDisk)};
        };
        auto random_resident = [&] {
            auto it = model.begin();
            std::advance(it, static_cast<long>(rng.below(model.size())));
            return it;
        };

        for (std::size_t step = 0; step < 4000; ++step) {
            const uint64_t op = rng.below(20);
            if (op < 10) {
                // Demand access or prefetch insertion.
                const BlockId blk = random_block();
                const bool resident = model.count(blk) > 0;
                const bool full = model.size() == kCapacity;
                const CacheResult r =
                    op < 7 ? cache.access(blk, 0, step)
                           : cache.insert(blk, 0, step);
                ASSERT_EQ(r.hit, resident);
                ASSERT_EQ(r.evicted, !resident && full);
                if (r.evicted) {
                    const auto victim = model.find(r.victim);
                    ASSERT_NE(victim, model.end());
                    ASSERT_EQ(r.victimDirty, victim->second.dirty);
                    ASSERT_EQ(r.victimLogged, victim->second.logged);
                    model.erase(victim);
                }
                if (!resident)
                    model.emplace(blk, Flags{});
            } else if (!model.empty() && op < 13) {
                const auto it = random_resident();
                cache.markDirty(it->first);
                it->second.dirty = true;
            } else if (!model.empty() && op < 15) {
                const auto it = random_resident();
                cache.markClean(it->first);
                it->second.dirty = false;
            } else if (!model.empty() && op < 18) {
                const auto it = random_resident();
                cache.markLogged(it->first);
                it->second.logged = true;
            } else {
                // clearLogged tolerates non-resident blocks.
                const BlockId blk = random_block();
                cache.clearLogged(blk);
                if (const auto it = model.find(blk); it != model.end())
                    it->second.logged = false;
            }

            ASSERT_EQ(cache.size(), model.size());
            for (DiskId d = 0; d < kDisks; ++d) {
                std::set<BlockId> dirty, logged;
                for (const auto &[blk, flags] : model) {
                    if (blk.disk != d)
                        continue;
                    if (flags.dirty)
                        dirty.insert(blk);
                    if (flags.logged)
                        logged.insert(blk);
                }
                const auto got_dirty = cache.dirtyBlocksOf(d);
                const auto got_logged = cache.loggedBlocksOf(d);
                ASSERT_EQ(got_dirty.size(), dirty.size());
                ASSERT_EQ(got_logged.size(), logged.size());
                ASSERT_EQ(std::set<BlockId>(got_dirty.begin(),
                                            got_dirty.end()),
                          dirty);
                ASSERT_EQ(std::set<BlockId>(got_logged.begin(),
                                            got_logged.end()),
                          logged);
                ASSERT_EQ(cache.dirtyCount(d), dirty.size());
                for (BlockNum n = 0; n < kBlocksPerDisk; ++n) {
                    const BlockId blk{d, n};
                    const auto it = model.find(blk);
                    const bool in = it != model.end();
                    ASSERT_EQ(cache.contains(blk), in);
                    ASSERT_EQ(cache.isDirty(blk), in && it->second.dirty);
                    ASSERT_EQ(cache.isLogged(blk),
                              in && it->second.logged);
                }
            }
        }
    }
}

/**
 * Pass-through policy that checks the slot contract of
 * cache/policy.hh on every call: a miss's slot is below capacity and
 * held by no other resident; fresh slots come 0, 1, 2, ... until the
 * cache is full; afterwards each replacement takes its victim's
 * slot; a hit names the slot its block was given.
 */
class SlotCheckingPolicy : public ReplacementPolicy
{
  public:
    SlotCheckingPolicy(ReplacementPolicy &inner_, std::size_t capacity_)
        : inner(&inner_), capacity(capacity_) {}

    const char *name() const override { return inner->name(); }

    void
    onAccess(const BlockId &block, CacheSlot slot, Time now,
             std::size_t idx, bool hit) override
    {
        if (hit) {
            EXPECT_EQ(slotOf.at(block), slot);
        } else {
            EXPECT_LT(slot, capacity);
            EXPECT_EQ(holder.count(slot), 0u) << "slot " << slot;
            if (haveVictimSlot) {
                EXPECT_EQ(slot, victimSlot);
                haveVictimSlot = false;
            } else {
                EXPECT_EQ(slot, fresh);
                ++fresh;
            }
            holder[slot] = block;
            slotOf[block] = slot;
        }
        inner->onAccess(block, slot, now, idx, hit);
    }

    void
    onRemove(const BlockId &block, CacheSlot slot) override
    {
        inner->onRemove(block, slot);
    }

    BlockId
    evict(Time now, std::size_t idx) override
    {
        EXPECT_EQ(fresh, capacity) << "eviction before the cache filled";
        const BlockId victim = inner->evict(now, idx);
        victimSlot = slotOf.at(victim);
        haveVictimSlot = true;
        slotOf.erase(victim);
        holder.erase(victimSlot);
        ++evictions;
        return victim;
    }

    std::size_t fresh = 0; //!< fresh slots handed out so far
    std::size_t evictions = 0;

  private:
    ReplacementPolicy *inner;
    std::size_t capacity;
    std::map<CacheSlot, BlockId> holder;
    std::map<BlockId, CacheSlot> slotOf;
    CacheSlot victimSlot = 0;
    bool haveVictimSlot = false;
};

TEST(CacheSlots, ContractHoldsOnDemandAndPrefetchPaths)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        const std::size_t capacity = 3 + seed * 2;
        auto inner = makeSlotPolicy(static_cast<int>(seed % 3));
        SlotCheckingPolicy checker(*inner, capacity);
        Cache cache(capacity, checker);
        Rng rng(seed * 31);
        std::size_t inserts = 0;
        for (std::size_t i = 0; i < 3000; ++i) {
            const BlockId blk{static_cast<DiskId>(rng.below(2)),
                              rng.below(capacity * 3)};
            // A third of the traffic goes through the prefetch path.
            if (rng.below(3) == 0) {
                inserts += !cache.insert(blk, 0, i).hit;
            } else {
                cache.access(blk, 0, i);
            }
        }
        EXPECT_EQ(checker.fresh, capacity);
        EXPECT_EQ(cache.stats().prefetchInserts, inserts);
        EXPECT_EQ(checker.evictions, cache.stats().evictions);
        EXPECT_GT(inserts, 0u);
        EXPECT_GT(checker.evictions, 0u);
    }
}

TEST(CacheBasics, CapacityBeyondTheSlotIndexIsFatal)
{
    LruPolicy p;
    try {
        Cache c(std::size_t{1} << 32, p);
        FAIL() << "a 2^32-block cache was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("4294967296 blocks"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("slot"), std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace pacache
