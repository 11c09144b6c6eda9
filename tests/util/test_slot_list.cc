#include <gtest/gtest.h>

#include <vector>

#include "util/slot_list.hh"

namespace pacache
{
namespace
{

using Index = SlotList::Index;

std::vector<Index>
contents(const SlotList &list)
{
    std::vector<Index> out;
    for (Index i = list.front(); i != SlotList::kNil; i = list.next(i))
        out.push_back(i);
    return out;
}

TEST(SlotList, StartsEmpty)
{
    SlotList list;
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.size(), 0u);
    EXPECT_EQ(list.front(), SlotList::kNil);
    EXPECT_EQ(list.back(), SlotList::kNil);
    EXPECT_FALSE(list.contains(0));
}

TEST(SlotList, PushFrontAndBackOrder)
{
    SlotList list;
    list.pushBack(2);
    list.pushFront(1);
    list.pushBack(3);
    EXPECT_EQ(contents(list), (std::vector<Index>{1, 2, 3}));
    EXPECT_EQ(list.front(), 1u);
    EXPECT_EQ(list.back(), 3u);
    EXPECT_EQ(list.size(), 3u);
}

TEST(SlotList, MoveToFrontFromMiddleAndBack)
{
    SlotList list;
    list.pushBack(1);
    list.pushBack(2);
    list.pushBack(3);

    list.moveToFront(2);
    EXPECT_EQ(contents(list), (std::vector<Index>{2, 1, 3}));

    list.moveToFront(3);
    EXPECT_EQ(contents(list), (std::vector<Index>{3, 2, 1}));
    EXPECT_EQ(list.back(), 1u);

    // Front splice is a no-op.
    list.moveToFront(list.front());
    EXPECT_EQ(contents(list), (std::vector<Index>{3, 2, 1}));
    EXPECT_EQ(list.size(), 3u);
}

TEST(SlotList, UnlinkMiddleFrontBack)
{
    SlotList list;
    for (Index i = 0; i < 5; ++i)
        list.pushBack(i);
    list.unlink(2); // middle
    EXPECT_EQ(contents(list), (std::vector<Index>{0, 1, 3, 4}));
    list.unlink(list.front());
    EXPECT_EQ(contents(list), (std::vector<Index>{1, 3, 4}));
    list.unlink(list.back());
    EXPECT_EQ(contents(list), (std::vector<Index>{1, 3}));
    EXPECT_EQ(list.front(), 1u);
    EXPECT_EQ(list.back(), 3u);
    list.unlink(1);
    list.unlink(3);
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.front(), SlotList::kNil);
    EXPECT_EQ(list.back(), SlotList::kNil);
}

TEST(SlotList, PopFrontBack)
{
    SlotList list;
    list.pushBack(1);
    list.pushBack(2);
    list.pushBack(3);
    EXPECT_EQ(list.popBack(), 3u);
    EXPECT_EQ(list.popFront(), 1u);
    EXPECT_FALSE(list.contains(1));
    EXPECT_EQ(list.popBack(), 2u);
    EXPECT_TRUE(list.empty());
    EXPECT_ANY_THROW(list.popFront()); // nothing left to pop
    EXPECT_ANY_THROW(list.popBack());
}

TEST(SlotList, InsertBefore)
{
    SlotList list;
    list.insertBefore(SlotList::kNil, 2); // kNil: append
    list.insertBefore(2, 1);              // before the front
    list.insertBefore(SlotList::kNil, 4);
    list.insertBefore(4, 3);              // middle
    EXPECT_EQ(contents(list), (std::vector<Index>{1, 2, 3, 4}));
    EXPECT_EQ(list.front(), 1u);
    EXPECT_EQ(list.back(), 4u);
}

TEST(SlotList, ContainsTracksMembershipAndIndicesAreReusable)
{
    SlotList list;
    list.pushFront(7); // grows the links past unused indices 0-6
    EXPECT_TRUE(list.contains(7));
    for (Index i = 0; i < 7; ++i)
        EXPECT_FALSE(list.contains(i));
    EXPECT_FALSE(list.contains(100));
    list.unlink(7);
    EXPECT_FALSE(list.contains(7));
    list.pushBack(7); // an unlinked index links again
    EXPECT_TRUE(list.contains(7));
    EXPECT_EQ(list.size(), 1u);
}

TEST(SlotList, MisusePanics)
{
    SlotList list;
    list.pushFront(1);
    EXPECT_ANY_THROW(list.pushFront(1));   // already linked
    EXPECT_ANY_THROW(list.pushBack(1));
    EXPECT_ANY_THROW(list.unlink(0));      // never linked
    EXPECT_ANY_THROW(list.unlink(50));     // beyond the links
    EXPECT_ANY_THROW(list.moveToFront(2));
    EXPECT_ANY_THROW(list.pushFront(SlotList::kNil));
    EXPECT_EQ(contents(list), (std::vector<Index>{1}));
}

TEST(SlotList, LruPattern)
{
    // The exact LRU usage: hit = moveToFront, evict = unlink(back),
    // insert = pushFront; order must match a reference trace.
    SlotList list;
    list.pushFront(1);                // [1]
    list.pushFront(2);                // [2 1]
    list.pushFront(3);                // [3 2 1]
    list.moveToFront(1);              // [1 3 2]
    const Index victim = list.back();
    list.unlink(victim);              // [1 3]
    EXPECT_EQ(victim, 2u);
    list.pushFront(2);                // [2 1 3]: the victim's index reused
    list.moveToFront(3);              // [3 2 1]
    EXPECT_EQ(contents(list), (std::vector<Index>{3, 2, 1}));
}

TEST(SlotList, TwoListsShareOneIndexSpace)
{
    // PA-LRU's layout: an index lives in at most one of two lists and
    // moves between them by unlink + push, with no lookup.
    SlotList a, b;
    for (Index i = 0; i < 6; ++i)
        (i % 2 ? b : a).pushFront(i);
    a.unlink(2);
    b.pushFront(2);
    EXPECT_EQ(contents(a), (std::vector<Index>{4, 0}));
    EXPECT_EQ(contents(b), (std::vector<Index>{2, 5, 3, 1}));
    EXPECT_FALSE(a.contains(2));
    EXPECT_TRUE(b.contains(2));
}

TEST(SlotList, GrowAtSizesPerIndexArrays)
{
    std::vector<int> values;
    growAt(values, 3) = 7;
    EXPECT_EQ(values.size(), 4u);
    EXPECT_EQ(values[3], 7);
    growAt(values, 1) = 5; // in range: no resize
    EXPECT_EQ(values.size(), 4u);
    EXPECT_EQ(values, (std::vector<int>{0, 5, 0, 7}));
}

} // namespace
} // namespace pacache
