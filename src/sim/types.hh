/**
 * @file
 * Fundamental types shared across the library.
 *
 * Conventions: time is in seconds (double), energy in Joules,
 * power in Watts. Blocks are fixed-size cache/disk units (4 KiB by
 * default); block numbers are per-disk logical block numbers.
 */

#ifndef PACACHE_SIM_TYPES_HH
#define PACACHE_SIM_TYPES_HH

#include <cstdint>
#include <functional>

#include "util/logging.hh"

namespace pacache
{

/** Simulated time in seconds. */
using Time = double;

/** Energy in Joules. */
using Energy = double;

/** Power in Watts. */
using Power = double;

/** Index of a disk within the array. */
using DiskId = uint32_t;

/** Per-disk logical block number. */
using BlockNum = uint64_t;

/** Default block size used throughout (bytes). */
inline constexpr uint64_t kDefaultBlockSize = 4096;

/** Globally unique block identity: (disk, block number). */
struct BlockId
{
    DiskId disk = 0;
    BlockNum block = 0;

    friend bool operator==(const BlockId &, const BlockId &) = default;
    friend auto operator<=>(const BlockId &, const BlockId &) = default;

    /** packed()'s key space: 16 disk bits, 48 block bits. */
    static constexpr uint64_t kDiskLimit = uint64_t{1} << 16;
    static constexpr uint64_t kBlockLimit = uint64_t{1} << 48;

    /**
     * True if every block of the extent [first, first + count) on
     * @p disk fits the packed key. Trace readers reject an extent
     * that does not with a located error, so packed() never sees one.
     */
    static constexpr bool
    packable(uint64_t disk, uint64_t first, uint64_t count)
    {
        return disk < kDiskLimit && count <= kBlockLimit &&
               first <= kBlockLimit - count;
    }

    /**
     * Pack into a single 64-bit key (for hashing / residency and
     * handle maps / Bloom filters). An id outside the key space would
     * silently alias another block in every packed-keyed structure,
     * so it panics here instead (no real trace comes close: 2^48
     * blocks is 1 EiB of 4 KiB sectors per disk).
     */
    uint64_t
    packed() const
    {
        PACACHE_ASSERT(packable(disk, block, 1), "BlockId (", disk, ", ",
                       block, ") overflows the 16/48-bit packed key");
        return (static_cast<uint64_t>(disk) << 48) |
               (block & 0xffffffffffffULL);
    }

    /**
     * Inverse of packed(). Packed keys order exactly like
     * (disk, block), so compact structures can store and compare the
     * key and unpack on demand.
     */
    static BlockId
    fromPacked(uint64_t key)
    {
        return BlockId{static_cast<DiskId>(key >> 48),
                       key & 0xffffffffffffULL};
    }
};

} // namespace pacache

namespace std
{

template <>
struct hash<pacache::BlockId>
{
    size_t
    operator()(const pacache::BlockId &id) const noexcept
    {
        uint64_t z = id.packed() + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<size_t>(z ^ (z >> 31));
    }
};

} // namespace std

#endif // PACACHE_SIM_TYPES_HH
