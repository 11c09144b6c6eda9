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
 *  - erase marks a tombstone; tombstones are reused by inserts and
 *    squashed wholesale when the occupied+tombstone load crosses the
 *    rehash threshold (7/8), which keeps probe chains short under the
 *    steady insert/erase churn of a full cache.
 *
 * Requirements: Key and T default-constructible; Key equality-
 * comparable. The default hasher accepts any integral key or any key
 * exposing `uint64_t packed() const` (BlockId).
 *
 * Not provided (by design, nothing in the hot loop needs them):
 * iteration in a meaningful order, references that survive rehash,
 * copy-on-write. Pointers returned by find() are invalidated by any
 * insert.
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
    enum : uint8_t
    {
        kEmpty = 0,
        kFull = 1,
        kTomb = 2
    };

    struct Slot
    {
        Key key{};
        T value{};
        uint8_t state = kEmpty;
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
            s.state = kEmpty;
        occupied = 0;
        tombstones = 0;
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

    /**
     * Rehash down after heavy erase churn. Tombstone squashing keeps
     * probe chains short but never returns slot memory; shrink()
     * does, rebuilding at the smallest power-of-two capacity that
     * holds the live elements under the 7/8 load limit. Only acts
     * when the table is at least 4x oversized, so calling it
     * periodically (window transitions) cannot thrash. Invalidates
     * pointers like any rehash.
     */
    void
    shrink()
    {
        if (slots.empty())
            return;
        std::size_t want = kMinCapacity;
        while (want * 7 < occupied * 8)
            want <<= 1;
        if (want * 4 <= slots.size())
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
        std::size_t i = hasher(key) & mask;
        std::size_t tomb = kNpos;
        while (true) {
            Slot &s = slots[i];
            if (s.state == kEmpty) {
                Slot &dst = tomb == kNpos ? s : slots[tomb];
                if (tomb != kNpos)
                    --tombstones;
                dst.key = key;
                dst.value = std::move(value);
                dst.state = kFull;
                ++occupied;
                return {&dst.value, true};
            }
            if (s.state == kTomb) {
                if (tomb == kNpos)
                    tomb = i;
            } else if (s.key == key) {
                return {&s.value, false};
            }
            i = (i + 1) & mask;
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
        s->state = kTomb;
        --occupied;
        ++tombstones;
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
        s->state = kTomb;
        --occupied;
        ++tombstones;
        return true;
    }

    /** Occupied-slot visitation (testing/serialization; any order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots) {
            if (s.state == kFull)
                fn(s.key, s.value);
        }
    }

    /** Table size in slots (testing: rehash/tombstone behavior). */
    std::size_t capacity() const { return slots.size(); }

  private:
    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

    Slot *
    findSlot(const Key &key)
    {
        if (slots.empty())
            return nullptr;
        const std::size_t mask = slots.size() - 1;
        std::size_t i = hasher(key) & mask;
        while (true) {
            Slot &s = slots[i];
            if (s.state == kEmpty)
                return nullptr;
            if (s.state == kFull && s.key == key)
                return &s;
            i = (i + 1) & mask;
        }
    }

    void
    maybeGrow()
    {
        if (slots.empty()) {
            slots.resize(kMinCapacity);
            return;
        }
        // Rehash at 7/8 combined load. Growing only when live
        // elements dominate; otherwise rebuild at the same size to
        // squash tombstones.
        if ((occupied + tombstones + 1) * 8 < slots.size() * 7)
            return;
        const std::size_t next = occupied * 2 >= slots.size()
                                     ? slots.size() * 2
                                     : slots.size();
        rehash(next);
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Slot> old = std::move(slots);
        slots.assign(new_capacity, Slot{});
        occupied = 0;
        tombstones = 0;
        const std::size_t mask = new_capacity - 1;
        for (Slot &s : old) {
            if (s.state != kFull)
                continue;
            std::size_t i = hasher(s.key) & mask;
            while (slots[i].state == kFull)
                i = (i + 1) & mask;
            slots[i].key = s.key;
            slots[i].value = std::move(s.value);
            slots[i].state = kFull;
            ++occupied;
        }
    }

    std::vector<Slot> slots;
    std::size_t occupied = 0;
    std::size_t tombstones = 0;
    [[no_unique_address]] Hash hasher{};
};

} // namespace pacache

#endif // PACACHE_UTIL_FLAT_MAP_HH
