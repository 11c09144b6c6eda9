#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "util/flat_map.hh"
#include "util/random.hh"

namespace pacache
{
namespace
{

TEST(FlatMap, EmptyFindsNothing)
{
    FlatMap<uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_FALSE(m.erase(42));
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<uint64_t, int> m;
    auto [v, inserted] = m.emplace(7, 70);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 70);
    EXPECT_EQ(m.size(), 1u);

    auto [v2, again] = m.emplace(7, 99);
    EXPECT_FALSE(again);
    EXPECT_EQ(*v2, 70); // existing value wins

    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);

    EXPECT_TRUE(m.erase(7));
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, SubscriptDefaultInserts)
{
    FlatMap<uint64_t, int> m;
    m[5] = 50;
    EXPECT_EQ(m[5], 50);
    EXPECT_EQ(m[6], 0); // default-constructed
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, GrowsAndKeepsEverything)
{
    FlatMap<uint64_t, uint64_t> m;
    const std::size_t n = 10000;
    for (uint64_t k = 0; k < n; ++k)
        ASSERT_TRUE(m.emplace(k, k * 3).second);
    EXPECT_EQ(m.size(), n);
    EXPECT_GE(m.capacity(), n);
    for (uint64_t k = 0; k < n; ++k) {
        const uint64_t *v = m.find(k);
        ASSERT_NE(v, nullptr) << "key " << k;
        EXPECT_EQ(*v, k * 3);
    }
    EXPECT_EQ(m.find(n + 1), nullptr);
}

TEST(FlatMap, EraseChurnDoesNotGrowTable)
{
    // Steady-state insert/erase at fixed occupancy (the cache's
    // access pattern) must stabilize the table size: an erase leaves
    // no tombstone, so the load never creeps up to a rehash.
    FlatMap<uint64_t, int> m;
    for (uint64_t k = 0; k < 64; ++k)
        m.emplace(k, 1);
    const std::size_t cap_after_fill = m.capacity();
    for (uint64_t round = 0; round < 100000; ++round) {
        const uint64_t dead = 64 + round;
        m.emplace(dead, 2);
        ASSERT_TRUE(m.erase(dead));
    }
    EXPECT_EQ(m.size(), 64u);
    EXPECT_LE(m.capacity(), cap_after_fill * 2);
    for (uint64_t k = 0; k < 64; ++k)
        ASSERT_NE(m.find(k), nullptr);
}

TEST(FlatMap, EraseThenReinsertKeepsEverything)
{
    FlatMap<uint64_t, int> m;
    for (uint64_t k = 0; k < 1000; ++k)
        m.emplace(k, 1);
    for (uint64_t k = 0; k < 1000; k += 2)
        ASSERT_TRUE(m.erase(k));
    EXPECT_EQ(m.size(), 500u);
    for (uint64_t k = 0; k < 1000; k += 2)
        ASSERT_TRUE(m.emplace(k, 2).second);
    EXPECT_EQ(m.size(), 1000u);
    for (uint64_t k = 0; k < 1000; ++k) {
        ASSERT_NE(m.find(k), nullptr);
        EXPECT_EQ(*m.find(k), k % 2 == 0 ? 2 : 1);
    }
}

TEST(FlatMap, BlockIdKeys)
{
    FlatMap<BlockId, int> m;
    const BlockId a{1, 100}, b{2, 100}, c{1, 101};
    m.emplace(a, 1);
    m.emplace(b, 2);
    m.emplace(c, 3);
    EXPECT_EQ(*m.find(a), 1);
    EXPECT_EQ(*m.find(b), 2);
    EXPECT_EQ(*m.find(c), 3);
    EXPECT_TRUE(m.erase(b));
    EXPECT_EQ(m.find(b), nullptr);
    EXPECT_EQ(*m.find(a), 1);
}

TEST(FlatMap, ClearRetainsCapacity)
{
    FlatMap<uint64_t, int> m;
    for (uint64_t k = 0; k < 100; ++k)
        m.emplace(k, 1);
    const std::size_t cap = m.capacity();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.find(5), nullptr);
    m.emplace(5, 9);
    EXPECT_EQ(*m.find(5), 9);
}

TEST(FlatMap, ReservePreventsRehash)
{
    FlatMap<uint64_t, int> m;
    m.reserve(5000);
    const std::size_t cap = m.capacity();
    for (uint64_t k = 0; k < 5000; ++k)
        m.emplace(k, 1);
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, ReserveOverflowPanics)
{
    // A wrapped size (a negative count cast to size_t) must fail
    // fast instead of spinning the sizing loop.
    FlatMap<uint64_t, int> m;
    EXPECT_THROW(m.reserve(static_cast<std::size_t>(-5)), std::logic_error);
    EXPECT_THROW(m.reserve(std::size_t{1} << 60), std::logic_error);
    EXPECT_EQ(m.capacity(), 0u);
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomChurn)
{
    FlatMap<uint64_t, uint64_t> m;
    std::unordered_map<uint64_t, uint64_t> ref;
    Rng rng(17);
    for (int op = 0; op < 200000; ++op) {
        const uint64_t key = rng.below(512); // small space: collisions
        switch (rng.below(3)) {
          case 0: {
            const uint64_t val = rng.next64();
            const bool inserted = m.emplace(key, val).second;
            const bool ref_inserted = ref.emplace(key, val).second;
            ASSERT_EQ(inserted, ref_inserted);
            break;
          }
          case 1:
            ASSERT_EQ(m.erase(key), ref.erase(key) > 0);
            break;
          default: {
            const uint64_t *v = m.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end());
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
          }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
}

TEST(FlatMap, ForEachVisitsAllLiveEntries)
{
    FlatMap<uint64_t, int> m;
    for (uint64_t k = 0; k < 50; ++k)
        m.emplace(k, static_cast<int>(k));
    for (uint64_t k = 0; k < 50; k += 3)
        m.erase(k);
    std::vector<uint64_t> seen;
    m.forEach([&](uint64_t k, int v) {
        EXPECT_EQ(static_cast<int>(k), v);
        seen.push_back(k);
    });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen.size(), m.size());
    for (uint64_t k : seen)
        EXPECT_NE(k % 3, 0u);
}

/** Every key of @p ref is in @p m with its value, and no other is. */
void
expectSame(const FlatMap<uint64_t, uint64_t> &m,
           const std::unordered_map<uint64_t, uint64_t> &ref,
           uint64_t key_space)
{
    ASSERT_EQ(m.size(), ref.size());
    for (uint64_t k = 0; k < key_space; ++k) {
        const uint64_t *v = m.find(k);
        const auto it = ref.find(k);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << k;
        if (v) {
            ASSERT_EQ(*v, it->second) << "key " << k;
        }
    }
}

TEST(FlatMap, MatchesUnorderedMapWhenClustersWrap)
{
    // A 16-slot table held at up to 13 entries: clusters run past the
    // last slot and wrap to the first, so backward-shift deletion must
    // move entries across the wrap (and leave those whose home lies
    // between the hole and them). Every key is checked after every
    // operation.
    FlatMap<uint64_t, uint64_t> m;
    std::unordered_map<uint64_t, uint64_t> ref;
    Rng rng(99);
    constexpr uint64_t kKeys = 40;
    for (int op = 0; op < 20000; ++op) {
        const uint64_t key = rng.below(kKeys);
        if (rng.below(2) == 0 && ref.size() < 13) {
            const uint64_t val = rng.next64();
            ASSERT_EQ(m.emplace(key, val).second,
                      ref.emplace(key, val).second);
        } else {
            uint64_t got = 0;
            const bool had = m.take(key, got);
            const auto it = ref.find(key);
            ASSERT_EQ(had, it != ref.end());
            if (had) {
                ASSERT_EQ(got, it->second);
                ref.erase(it);
            }
        }
        ASSERT_EQ(m.capacity(), 16u);
        expectSame(m, ref, kKeys);
    }
}

/** A value that counts its moves: a rehash moves every entry. */
struct Counted
{
    static inline std::size_t moves = 0;

    uint64_t v = 0;

    Counted() = default;
    explicit Counted(uint64_t x) : v(x) {}
    Counted(const Counted &) = default;
    Counted &operator=(const Counted &) = default;
    Counted(Counted &&o) noexcept : v(o.v) { ++moves; }
    Counted &
    operator=(Counted &&o) noexcept
    {
        v = o.v;
        ++moves;
        return *this;
    }
};

TEST(FlatMap, SteadyChurnNeverRehashes)
{
    // A reserved table at a constant live size, under far more
    // erase/insert pairs than it has slots, keeps its one table: no
    // operation moves more than a short cluster of entries (a rehash,
    // same-size or not, would move all 1000), the capacity holds, and
    // every live key is still found.
    FlatMap<uint64_t, Counted> m;
    constexpr uint64_t kLive = 1000;
    m.reserve(kLive);
    const std::size_t cap = m.capacity();
    for (uint64_t k = 0; k < kLive; ++k)
        m.emplace(k, Counted(k));
    std::size_t worst = 0;
    for (uint64_t round = 0; round < 200000; ++round) {
        const std::size_t before = Counted::moves;
        ASSERT_TRUE(m.erase(round));
        ASSERT_TRUE(m.emplace(round + kLive, Counted(round + kLive)).second);
        worst = std::max(worst, Counted::moves - before);
        ASSERT_EQ(m.capacity(), cap);
    }
    EXPECT_LT(worst, kLive / 4);
    EXPECT_EQ(m.size(), kLive);
    for (uint64_t k = 200000; k < 200000 + kLive; ++k) {
        ASSERT_NE(m.find(k), nullptr);
        EXPECT_EQ(m.find(k)->v, k);
    }
}

} // namespace
} // namespace pacache
