/**
 * @file
 * OrderedSet unit tests plus randomized differential checks against
 * std::set / std::map models, sized to force chunk splits and
 * empty-chunk removal. neighbors() and forEachInRange() — the two
 * queries OPG's hot path depends on — are cross-checked against the
 * model on every round. Each differential runs twice: unattached,
 * and attached to a SpillPool that holds only some of the chunks, so
 * chunks spill and fault back every few operations without changing
 * an answer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "util/ordered_set.hh"
#include "util/spill_pool.hh"

namespace pacache
{
namespace
{

TEST(OrderedSet, InsertEraseContains)
{
    OrderedSet<std::size_t> s;
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.insert(5));
    EXPECT_FALSE(s.insert(5)); // duplicate rejected
    EXPECT_TRUE(s.insert(3));
    EXPECT_TRUE(s.insert(9));
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(s.contains(5));
    EXPECT_FALSE(s.contains(4));
    EXPECT_TRUE(s.erase(5));
    EXPECT_FALSE(s.erase(5));
    EXPECT_FALSE(s.contains(5));
    EXPECT_EQ(s.size(), 2u);
    s.checkInvariants();
}

TEST(OrderedSet, NeighborsOnEmptyAndSingleton)
{
    OrderedSet<std::size_t> s;
    auto nb = s.neighbors(10);
    EXPECT_FALSE(nb.hasPred);
    EXPECT_FALSE(nb.hasSucc);
    EXPECT_FALSE(nb.present);

    s.insert(10);
    nb = s.neighbors(10);
    EXPECT_TRUE(nb.present);
    EXPECT_FALSE(nb.hasPred);
    EXPECT_FALSE(nb.hasSucc);

    nb = s.neighbors(5);
    EXPECT_FALSE(nb.present);
    EXPECT_FALSE(nb.hasPred);
    ASSERT_TRUE(nb.hasSucc);
    EXPECT_EQ(nb.succ, 10u);

    nb = s.neighbors(15);
    EXPECT_FALSE(nb.present);
    ASSERT_TRUE(nb.hasPred);
    EXPECT_EQ(nb.pred, 10u);
    EXPECT_FALSE(nb.hasSucc);
}

TEST(OrderedSet, PredecessorSuccessorAreStrict)
{
    OrderedSet<std::size_t> s;
    for (std::size_t k : {10u, 20u, 30u})
        s.insert(k);
    auto nb = s.neighbors(20);
    EXPECT_TRUE(nb.present);
    ASSERT_TRUE(nb.hasPred);
    EXPECT_EQ(nb.pred, 10u); // strictly less, not the key itself
    ASSERT_TRUE(nb.hasSucc);
    EXPECT_EQ(nb.succ, 30u);
    EXPECT_FALSE(s.neighbors(10).hasPred);
    EXPECT_FALSE(s.neighbors(30).hasSucc);
}

TEST(OrderedSet, RangeVisitIsExclusiveBothEnds)
{
    OrderedSet<std::size_t> s;
    for (std::size_t k = 0; k < 10; ++k)
        s.insert(k * 10);
    std::vector<std::size_t> seen;
    s.forEachInRange(20, 60, [&](std::size_t k) { seen.push_back(k); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{30, 40, 50}));
}

TEST(OrderedSet, SplitsAndDrainsChunks)
{
    // 3000 keys forces multiple chunk splits; erasing every key
    // afterwards must drain every chunk without tripping invariants.
    OrderedSet<std::size_t> s;
    for (std::size_t k = 0; k < 3000; ++k)
        s.insert((k * 2654435761u) % 100000);
    s.checkInvariants();
    const std::size_t n = s.size();
    std::vector<std::size_t> keys;
    s.forEach([&](std::size_t k) { keys.push_back(k); });
    ASSERT_EQ(keys.size(), n);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    for (std::size_t k : keys)
        EXPECT_TRUE(s.erase(k));
    EXPECT_TRUE(s.empty());
    s.checkInvariants();
}

TEST(OrderedSet, MappedFormStoresValues)
{
    OrderedSet<std::size_t, std::uint32_t> m;
    EXPECT_TRUE(m.insert(7, 70u));
    EXPECT_TRUE(m.insert(3, 30u));
    EXPECT_FALSE(m.insert(7, 99u)); // duplicate key keeps old value
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70u);
    EXPECT_EQ(m.find(5), nullptr);

    std::vector<std::pair<std::size_t, std::uint32_t>> seen;
    m.forEach([&](std::size_t k, std::uint32_t v) {
        seen.emplace_back(k, v);
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], (std::pair<std::size_t, std::uint32_t>{3, 30}));
    EXPECT_EQ(seen[1], (std::pair<std::size_t, std::uint32_t>{7, 70}));
    m.checkInvariants();
}

/** Check @p nb's strict predecessor/successor of @p k against @p model. */
void
expectNeighbors(const std::set<std::size_t> &model, std::size_t k,
                const OrderedSet<std::size_t>::Neighbors &nb)
{
    auto it = model.lower_bound(k);
    if (it == model.begin()) {
        ASSERT_FALSE(nb.hasPred);
    } else {
        ASSERT_TRUE(nb.hasPred);
        ASSERT_EQ(nb.pred, *std::prev(it));
    }
    auto succ = model.upper_bound(k);
    if (succ == model.end()) {
        ASSERT_FALSE(nb.hasSucc);
    } else {
        ASSERT_TRUE(nb.hasSucc);
        ASSERT_EQ(nb.succ, *succ);
    }
}

/** The std::set differential; attached to @p pool when non-null. */
void
setDifferential(SpillPool *pool)
{
    OrderedSet<std::size_t> s;
    if (pool)
        s.attach(*pool);
    std::set<std::size_t> model;
    std::mt19937_64 rng(99);
    const std::size_t universe = 4096;

    for (int step = 0; step < 30000; ++step) {
        const std::size_t k = rng() % universe;
        OrderedSet<std::size_t>::Neighbors nb;
        switch (rng() % 6) {
        case 0:
        case 1: // bias toward growth so chunks split
            ASSERT_EQ(s.insert(k), model.insert(k).second);
            break;
        case 2:
            ASSERT_EQ(s.erase(k), model.erase(k) > 0);
            break;
        case 3: // OPG's eviction shape: insert, report the gap
            ASSERT_EQ(s.insertWithNeighbors(k, nb), !model.count(k));
            expectNeighbors(model, k, nb);
            model.insert(k);
            break;
        case 4: // OPG's retirement shape: erase, report the gap
            ASSERT_EQ(s.eraseWithNeighbors(k, nb), model.count(k) > 0);
            expectNeighbors(model, k, nb);
            model.erase(k);
            break;
        default:
            ASSERT_EQ(s.contains(k), model.count(k) > 0);
            nb = s.neighbors(k);
            ASSERT_EQ(nb.present, model.count(k) > 0);
            expectNeighbors(model, k, nb);
            break;
        }
        ASSERT_EQ(s.size(), model.size());
        if (step % 1000 == 0)
            s.checkInvariants();
    }
    s.checkInvariants();

    // Range scans at random bounds must agree with the model.
    for (int round = 0; round < 200; ++round) {
        std::size_t lo = rng() % universe;
        std::size_t hi = rng() % universe;
        if (hi < lo)
            std::swap(lo, hi);
        std::vector<std::size_t> got;
        s.forEachInRange(lo, hi,
                         [&](std::size_t k) { got.push_back(k); });
        std::vector<std::size_t> want;
        for (auto it = model.upper_bound(lo);
             it != model.end() && *it < hi; ++it)
            want.push_back(*it);
        ASSERT_EQ(got, want) << "range (" << lo << ", " << hi << ")";
    }

    // Full-order sweep.
    std::vector<std::size_t> got;
    s.forEach([&](std::size_t k) { got.push_back(k); });
    EXPECT_EQ(got, std::vector<std::size_t>(model.begin(), model.end()));
    if (pool) {
        EXPECT_GT(s.faults(), 0u);
        EXPECT_GT(pool->evictions(), 0u);
        pool->checkInvariants();
    }
}

TEST(OrderedSet, RandomizedDifferentialVsStdSet)
{
    setDifferential(nullptr);
    // Room for a third of the chunks: splits and drops then shift
    // resident chunks, whose pool pages must follow them.
    SpillPool pool(16 << 10);
    setDifferential(&pool);
}

/** The std::map differential; attached to @p pool when non-null. */
void
mapDifferential(SpillPool *pool)
{
    OrderedSet<std::size_t, std::uint64_t> m;
    if (pool)
        m.attach(*pool);
    std::map<std::size_t, std::uint64_t> model;
    std::mt19937_64 rng(7);

    for (int step = 0; step < 20000; ++step) {
        const std::size_t k = rng() % 2048;
        const std::uint64_t v = rng();
        switch (rng() % 4) {
        case 0:
        case 1:
            ASSERT_EQ(m.insert(k, v), model.emplace(k, v).second);
            break;
        case 2:
            ASSERT_EQ(m.erase(k), model.erase(k) > 0);
            break;
        default: {
            std::uint64_t out = 0;
            auto it = model.find(k);
            ASSERT_EQ(m.take(k, out), it != model.end());
            if (it != model.end()) {
                ASSERT_EQ(out, it->second);
                model.erase(it);
            }
            break;
        }
        }
        const std::size_t probe = rng() % 2048;
        auto it = model.find(probe);
        const std::uint64_t *got = m.find(probe);
        if (it == model.end()) {
            ASSERT_EQ(got, nullptr);
        } else {
            ASSERT_NE(got, nullptr);
            ASSERT_EQ(*got, it->second);
        }
        if (step % 1000 == 0)
            m.checkInvariants();
    }
    m.checkInvariants();

    // Mapped range scan carries the values along.
    std::vector<std::pair<std::size_t, std::uint64_t>> got, want;
    m.forEachInRange(100, 1900, [&](std::size_t k, std::uint64_t v) {
        got.emplace_back(k, v);
    });
    for (auto it = model.upper_bound(100);
         it != model.end() && it->first < 1900; ++it)
        want.emplace_back(it->first, it->second);
    EXPECT_EQ(got, want);
    if (pool) {
        EXPECT_GT(m.faults(), 0u);
        EXPECT_GT(pool->evictions(), 0u);
    }
}

TEST(OrderedSet, RandomizedDifferentialVsStdMap)
{
    mapDifferential(nullptr);
    SpillPool pool(16 << 10);
    mapDifferential(&pool);
}

TEST(OrderedSet, SpilledEraseAtMinDrainsLikeOpgRetirement)
{
    // OPG's deterministic-miss pattern under spilling: bulk ascending
    // seeding, then erase-at-minimum retirement.
    SpillPool pool(4 << 10);
    OrderedSet<std::size_t> s;
    s.attach(pool);
    const std::size_t n = 5000;
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_TRUE(s.insert(k));
    EXPECT_EQ(s.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
        OrderedSet<std::size_t>::Neighbors nb;
        ASSERT_TRUE(s.eraseWithNeighbors(k, nb));
        EXPECT_FALSE(nb.hasPred);
        if (k + 1 < n) {
            ASSERT_TRUE(nb.hasSucc);
            EXPECT_EQ(nb.succ, k + 1);
        } else {
            EXPECT_FALSE(nb.hasSucc);
        }
    }
    EXPECT_TRUE(s.empty());
    s.checkInvariants();
    EXPECT_GT(s.faults(), 0u);
}

TEST(OrderedSet, SpilledSharedPoolAcrossManySets)
{
    // The real deployment: one pool budgets many per-disk sets.
    SpillPool pool(8 << 10);
    std::vector<OrderedSet<std::size_t>> sets(16);
    for (auto &s : sets)
        s.attach(pool);
    for (std::size_t k = 0; k < 2000; ++k)
        EXPECT_TRUE(sets[k % sets.size()].insert(k));
    std::size_t total = 0;
    for (auto &s : sets) {
        s.checkInvariants();
        total += s.size();
    }
    EXPECT_EQ(total, 2000u);
    EXPECT_GT(pool.evictions(), 0u);
    pool.checkInvariants();
}

} // namespace
} // namespace pacache
