/**
 * @file
 * SlotList — a doubly-linked list over dense indices, linked by index
 * rather than by pointer, built for replacement-policy orders.
 *
 * The cache gives every resident block a dense slot in
 * [0, capacity) (see the slot contract in cache/policy.hh). A policy
 * can then keep its recency, insertion or clock order as prev/next
 * indices in one flat array indexed by slot:
 *
 *  - a hit splices its block by slot, with no lookup at all;
 *  - nothing is allocated per element: the link array grows on
 *    demand to the largest index ever linked and is then reused
 *    forever, so a policy at steady state never touches the heap;
 *  - an index is either in the list or not, and contains() answers
 *    which in O(1), so policies keep their "unknown block" checks.
 *
 * Users without slots of their own (LruStack, which ARC's four
 * stacks use) hand out indices from a free list.
 *
 * Not thread-safe. Values live in the user's own per-index arrays;
 * growAt() sizes those the same way.
 */

#ifndef PACACHE_UTIL_SLOT_LIST_HH
#define PACACHE_UTIL_SLOT_LIST_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace pacache
{

/** Element @p i of a per-index array, growing the array on demand. */
template <typename T>
T &
growAt(std::vector<T> &v, std::size_t i)
{
    if (i >= v.size())
        v.resize(i + 1);
    return v[i];
}

/** Index-linked doubly-linked list; see the file comment. */
class SlotList
{
  public:
    using Index = uint32_t;

    /** "No element": the end of the list, or the head of an empty one. */
    static constexpr Index kNil = UINT32_MAX;

    /** Indices at or above this are reserved for the sentinels. */
    static constexpr Index kMaxIndex = kNil - 2;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** First element, or kNil when empty. */
    Index front() const { return head; }

    /** Last element, or kNil when empty. */
    Index back() const { return tail; }

    /** Successor of linked index @p i, or kNil at the end. */
    Index next(Index i) const { return links[i].next; }

    bool
    contains(Index i) const
    {
        return i < links.size() && links[i].prev != kUnlinked;
    }

    void
    pushFront(Index i)
    {
        Link &n = claim(i);
        n.prev = kNil;
        n.next = head;
        if (head != kNil)
            links[head].prev = i;
        else
            tail = i;
        head = i;
    }

    void
    pushBack(Index i)
    {
        Link &n = claim(i);
        n.next = kNil;
        n.prev = tail;
        if (tail != kNil)
            links[tail].next = i;
        else
            head = i;
        tail = i;
    }

    /**
     * Link @p i just before the linked index @p pos (kNil: append at
     * the back), matching std::list::insert.
     */
    void
    insertBefore(Index pos, Index i)
    {
        if (pos == kNil || pos == head) {
            pos == kNil ? pushBack(i) : pushFront(i);
            return;
        }
        Link &n = claim(i);
        Link &p = links[pos];
        n.prev = p.prev;
        n.next = pos;
        links[p.prev].next = i;
        p.prev = i;
    }

    /** Splice the linked index @p i to the front. */
    void
    moveToFront(Index i)
    {
        PACACHE_ASSERT(contains(i), "SlotList: index ", i, " not linked");
        if (i == head)
            return;
        detach(i);
        Link &n = links[i];
        n.prev = kNil;
        n.next = head;
        links[head].prev = i; // head != i, so the list is non-empty
        head = i;
    }

    /** Remove the linked index @p i; it may be linked again later. */
    void
    unlink(Index i)
    {
        PACACHE_ASSERT(contains(i), "SlotList: index ", i, " not linked");
        detach(i);
        links[i] = Link{};
        --count;
    }

    /** Unlink and return the first index; the list must be non-empty. */
    Index
    popFront()
    {
        const Index i = head;
        unlink(i);
        return i;
    }

    /** Unlink and return the last index; the list must be non-empty. */
    Index
    popBack()
    {
        const Index i = tail;
        unlink(i);
        return i;
    }

  private:
    //! prev of an index that is not in the list
    static constexpr Index kUnlinked = kNil - 1;

    struct Link
    {
        Index prev = kUnlinked;
        Index next = kUnlinked;
    };

    /** Make room for @p i, which must not be linked yet. */
    Link &
    claim(Index i)
    {
        PACACHE_ASSERT(i <= kMaxIndex, "SlotList: index ", i,
                       " collides with a sentinel");
        Link &n = growAt(links, i);
        PACACHE_ASSERT(n.prev == kUnlinked, "SlotList: index ", i,
                       " already linked");
        ++count;
        return n;
    }

    /** Take @p i out of the chain, leaving its own links stale. */
    void
    detach(Index i)
    {
        const Link &n = links[i];
        if (n.prev != kNil)
            links[n.prev].next = n.next;
        else
            head = n.next;
        if (n.next != kNil)
            links[n.next].prev = n.prev;
        else
            tail = n.prev;
    }

    std::vector<Link> links;
    Index head = kNil;
    Index tail = kNil;
    std::size_t count = 0;
};

} // namespace pacache

#endif // PACACHE_UTIL_SLOT_LIST_HH
