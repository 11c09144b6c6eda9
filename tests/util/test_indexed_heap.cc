/**
 * @file
 * IndexedHeap unit tests plus a randomized differential check against
 * a std::set model: every operation mix a caller can issue (push,
 * update up/down, erase by handle, pop) must keep the heap's top and
 * size identical to the model's minimum, with validate() passing
 * throughout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/indexed_heap.hh"

namespace pacache
{
namespace
{

TEST(IndexedHeap, PopsInAscendingOrder)
{
    IndexedHeap<int> heap;
    std::vector<int> keys{9, 3, 7, 1, 8, 2, 6, 0, 5, 4};
    for (int k : keys)
        heap.push(k);
    ASSERT_EQ(heap.size(), keys.size());

    std::vector<int> popped;
    while (!heap.empty()) {
        popped.push_back(heap.top());
        heap.pop();
    }
    EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
    EXPECT_EQ(popped.size(), keys.size());
}

TEST(IndexedHeap, HandlesStayStableAcrossChurn)
{
    IndexedHeap<int> heap;
    const auto h42 = heap.push(42);
    std::vector<IndexedHeap<int>::Handle> others;
    for (int k = 0; k < 100; ++k)
        others.push_back(heap.push(k));
    for (std::size_t i = 0; i < others.size(); i += 2)
        heap.erase(others[i]);
    heap.validate();
    EXPECT_EQ(heap.key(h42), 42);
}

TEST(IndexedHeap, UpdateMovesBothDirections)
{
    IndexedHeap<int> heap;
    heap.push(10);
    heap.push(20);
    const auto h = heap.push(30);

    heap.update(h, 5); // decrease: must become the new top
    heap.validate();
    EXPECT_EQ(heap.top(), 5);
    EXPECT_EQ(heap.topHandle(), h);

    heap.update(h, 25); // increase: must sink back down
    heap.validate();
    EXPECT_EQ(heap.top(), 10);
    EXPECT_EQ(heap.key(h), 25);
}

TEST(IndexedHeap, EraseOfNonTopKeepsOrder)
{
    IndexedHeap<int> heap;
    std::vector<IndexedHeap<int>::Handle> hs;
    for (int k = 0; k < 50; ++k)
        hs.push_back(heap.push(k));
    heap.erase(hs[25]);
    heap.erase(hs[49]);
    heap.erase(hs[0]);
    heap.validate();
    EXPECT_EQ(heap.size(), 47u);
    EXPECT_EQ(heap.top(), 1);
}

TEST(IndexedHeap, FreeListRecyclesSlots)
{
    IndexedHeap<int> heap;
    const auto a = heap.push(1);
    const auto b = heap.push(2);
    heap.erase(a);
    heap.erase(b);
    // LIFO free list: the most recently erased slot comes back first.
    EXPECT_EQ(heap.push(3), b);
    EXPECT_EQ(heap.push(4), a);
    heap.validate();
}

TEST(IndexedHeap, ForEachVisitsExactlyTheLiveElements)
{
    IndexedHeap<int> heap;
    std::map<IndexedHeap<int>::Handle, int> live, seen;
    for (int k : {5, 1, 8, 3, 9, 2})
        live[heap.push(k)] = k;
    live.erase(heap.topHandle());
    heap.pop();
    std::size_t visits = 0;
    heap.forEach([&](IndexedHeap<int>::Handle h, int k) {
        seen[h] = k;
        ++visits;
    });
    EXPECT_EQ(seen, live);
    EXPECT_EQ(visits, live.size());
}

TEST(IndexedHeap, MaxHeapViaComparator)
{
    IndexedHeap<int, std::greater<int>> heap;
    for (int k : {3, 9, 1, 7})
        heap.push(k);
    EXPECT_EQ(heap.top(), 9);
    heap.pop();
    EXPECT_EQ(heap.top(), 7);
    heap.validate();
}

TEST(IndexedHeap, ClearThenReuse)
{
    IndexedHeap<int> heap;
    for (int k = 0; k < 10; ++k)
        heap.push(k);
    heap.clear();
    EXPECT_TRUE(heap.empty());
    heap.push(5);
    EXPECT_EQ(heap.top(), 5);
    heap.validate();
}

TEST(IndexedHeap, RandomizedDifferentialVsSet)
{
    // Model: a std::set of (key, uid) pairs mirroring every live
    // element; the heap top must always equal the model minimum.
    using Elem = std::pair<int, std::uint32_t>;
    IndexedHeap<Elem> heap;
    std::set<Elem> model;
    std::unordered_map<std::uint32_t, IndexedHeap<Elem>::Handle> live;
    std::uint32_t nextUid = 0;

    std::mt19937_64 rng(1234);
    auto randomLive = [&]() {
        auto it = live.begin();
        std::advance(it, rng() % live.size());
        return it;
    };

    for (int step = 0; step < 20000; ++step) {
        const int op = static_cast<int>(rng() % 100);
        if (live.empty() || op < 40) {
            const Elem e{static_cast<int>(rng() % 500), nextUid++};
            live[e.second] = heap.push(e);
            model.insert(e);
        } else if (op < 60) {
            auto it = randomLive();
            const Elem old = heap.key(it->second);
            const Elem fresh{static_cast<int>(rng() % 500), it->first};
            heap.update(it->second, fresh);
            model.erase(old);
            model.insert(fresh);
        } else if (op < 80) {
            auto it = randomLive();
            model.erase(heap.key(it->second));
            heap.erase(it->second);
            live.erase(it);
        } else {
            const Elem top = heap.top();
            ASSERT_EQ(top, *model.begin());
            live.erase(top.second);
            model.erase(model.begin());
            heap.pop();
        }
        ASSERT_EQ(heap.size(), model.size());
        if (!heap.empty())
            ASSERT_EQ(heap.top(), *model.begin());
        if (step % 500 == 0)
            heap.validate();
    }
    heap.validate();

    // Drain: full pop order must match the model's sorted order.
    while (!model.empty()) {
        ASSERT_EQ(heap.top(), *model.begin());
        model.erase(model.begin());
        heap.pop();
    }
    EXPECT_TRUE(heap.empty());
}

} // namespace
} // namespace pacache
