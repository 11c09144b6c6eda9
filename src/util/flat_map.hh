/**
 * @file
 * FlatMap — an open-addressing hash map for the simulator's hot
 * paths (cache residency sets, replacement-policy indexes, pending-
 * event sets).
 *
 * Design, chosen for the access pattern of a cache simulation (one
 * lookup + one pointer splice per simulated request, hundreds of
 * millions of times per sweep):
 *
 *  - one contiguous slot array, power-of-two sized, linear probing:
 *    a lookup touches one cache line in the common case, never
 *    chases node pointers and never allocates per element;
 *  - splitmix64 finalizer over the raw key bits, so dense block
 *    numbers (the typical trace) spread uniformly regardless of the
 *    table size;
 *  - erase deletes by backward shift: it walks the cluster after the
 *    freed slot and moves back every entry whose probe path crosses
 *    the gap, so no tombstone is left. Probe chains stay as short as
 *    the live load alone makes them under the steady insert/erase
 *    churn of a full cache, and the table grows only when live
 *    entries reach 7/8 of it.
 *
 * Requirements: Key and T default-constructible and move-assignable;
 * Key equality-comparable. The default hasher accepts any integral
 * key or any key exposing `uint64_t packed() const` (BlockId).
 *
 * Not provided (by design, nothing in the hot loop needs them):
 * iteration in a meaningful order, references that survive rehash,
 * copy-on-write. Pointers returned by find() are invalidated by any
 * insert and by any erase (an erase may move other entries back).
 */

#ifndef PACACHE_UTIL_FLAT_MAP_HH
#define PACACHE_UTIL_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace pacache
{

/** splitmix64 finalizer: cheap, statistically solid 64-bit mixing. */
inline uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Default FlatMap hasher: integral keys hash their value, struct keys
 * hash their packed() form (BlockId).
 */
template <typename Key>
struct FlatKeyHash
{
    uint64_t
    operator()(const Key &key) const
    {
        if constexpr (std::is_integral_v<Key> || std::is_enum_v<Key>)
            return splitmix64(static_cast<uint64_t>(key));
        else
            return splitmix64(key.packed());
    }
};

/** Open-addressing hash map; see the file comment for the contract. */
template <typename Key, typename T, typename Hash = FlatKeyHash<Key>>
class FlatMap
{
    struct Slot
    {
        Key key{};
        T value{};
        bool full = false;
    };

  public:
    FlatMap() = default;

    std::size_t size() const { return occupied; }
    bool empty() const { return occupied == 0; }

    /** Drop all elements, keeping the current table size. */
    void
    clear()
    {
        for (Slot &s : slots)
            s.full = false;
        occupied = 0;
    }

    /** Pre-size the table for @p n elements (no-op if large enough). */
    void
    reserve(std::size_t n)
    {
        // Beyond this, n * 8 or the doubling below would wrap and
        // the loop would never end.
        PACACHE_ASSERT(n <= std::numeric_limits<std::size_t>::max() / 64,
                       "FlatMap cannot reserve ", n, " elements");
        std::size_t want = kMinCapacity;
        // Grow until n fits under the load limit.
        while (want * 7 < n * 8)
            want <<= 1;
        if (want > slots.size())
            rehash(want);
    }

    /** @return pointer to the mapped value, or null if absent. */
    T *
    find(const Key &key)
    {
        Slot *s = findSlot(key);
        return s ? &s->value : nullptr;
    }

    const T *
    find(const Key &key) const
    {
        const Slot *s = const_cast<FlatMap *>(this)->findSlot(key);
        return s ? &s->value : nullptr;
    }

    bool contains(const Key &key) const { return find(key) != nullptr; }

    /**
     * Insert @p value under @p key if absent.
     * @return {pointer to the (existing or new) mapped value,
     *          true if newly inserted}
     */
    std::pair<T *, bool>
    emplace(const Key &key, T value)
    {
        maybeGrow();
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = hasher(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots[i];
            if (!s.full) {
                s.key = key;
                s.value = std::move(value);
                s.full = true;
                ++occupied;
                return {&s.value, true};
            }
            if (s.key == key)
                return {&s.value, false};
        }
    }

    /** find-or-default-insert, like std::unordered_map::operator[]. */
    T &operator[](const Key &key) { return *emplace(key, T{}).first; }

    /** @return true if the key was present and is now removed. */
    bool
    erase(const Key &key)
    {
        Slot *s = findSlot(key);
        if (!s)
            return false;
        removeAt(static_cast<std::size_t>(s - slots.data()));
        return true;
    }

    /**
     * Remove @p key and move its value into @p out in one probe
     * (where find-then-erase would pay the hash walk twice).
     * @return true if the key was present.
     */
    bool
    take(const Key &key, T &out)
    {
        Slot *s = findSlot(key);
        if (!s)
            return false;
        out = std::move(s->value);
        removeAt(static_cast<std::size_t>(s - slots.data()));
        return true;
    }

    /** Occupied-slot visitation (testing/serialization; any order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots) {
            if (s.full)
                fn(s.key, s.value);
        }
    }

    /** Table size in slots (testing: rehash behavior). */
    std::size_t capacity() const { return slots.size(); }

  private:
    static constexpr std::size_t kMinCapacity = 16;

    Slot *
    findSlot(const Key &key)
    {
        if (slots.empty())
            return nullptr;
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = hasher(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots[i];
            if (!s.full)
                return nullptr;
            if (s.key == key)
                return &s;
        }
    }

    /**
     * Empty slot @p hole without breaking a probe chain: an entry
     * further along the cluster moves back into the hole unless its
     * home slot lies cyclically in (hole, j], where the probe for it
     * starts past the hole anyway. The slot it leaves is the next
     * hole; the walk ends at the cluster's first empty slot.
     */
    void
    removeAt(std::size_t hole)
    {
        const std::size_t mask = slots.size() - 1;
        for (std::size_t j = (hole + 1) & mask; slots[j].full;
             j = (j + 1) & mask) {
            const std::size_t home = hasher(slots[j].key) & mask;
            if (((j - home) & mask) < ((j - hole) & mask))
                continue;
            slots[hole] = std::move(slots[j]);
            hole = j;
        }
        slots[hole].full = false;
        --occupied;
    }

    void
    maybeGrow()
    {
        if (slots.empty()) {
            slots.resize(kMinCapacity);
            return;
        }
        // Double at 7/8 load; with no tombstones, churn at a steady
        // size never rehashes.
        if ((occupied + 1) * 8 >= slots.size() * 7)
            rehash(slots.size() * 2);
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Slot> old = std::move(slots);
        slots.assign(new_capacity, Slot{});
        const std::size_t mask = new_capacity - 1;
        for (Slot &s : old) {
            if (!s.full)
                continue;
            std::size_t i = hasher(s.key) & mask;
            while (slots[i].full)
                i = (i + 1) & mask;
            slots[i] = std::move(s);
        }
    }

    std::vector<Slot> slots;
    std::size_t occupied = 0;
    [[no_unique_address]] Hash hasher{};
};

} // namespace pacache

#endif // PACACHE_UTIL_FLAT_MAP_HH
