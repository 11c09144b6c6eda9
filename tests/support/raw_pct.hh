/**
 * @file
 * Hand-assembled .pct images for error-path tests: bit-valid files
 * (magic, version, correct FNV-1a64 checksum) holding records that
 * PctWriter itself would refuse, with optionally forged header
 * counts.
 */

#ifndef PACACHE_TESTS_SUPPORT_RAW_PCT_HH
#define PACACHE_TESTS_SUPPORT_RAW_PCT_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "tracefmt/pct.hh"

namespace pacache::test
{

/** One raw record for hand-assembled .pct images. */
struct RawRecord
{
    double time;
    uint64_t block;
    uint32_t disk;
    uint32_t count;
    bool write;
};

namespace detail
{

inline void
putLe32(std::vector<unsigned char> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

inline void
putLe64(std::vector<unsigned char> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

inline void
putF64(std::vector<unsigned char> &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putLe64(out, bits);
}

} // namespace detail

/**
 * Write a syntactically valid .pct image of @p records to @p path —
 * including records the writer would refuse, like non-monotone
 * timestamps — with optionally forged header disk and record counts.
 * Returns @p path.
 */
inline std::string
writeRawPct(const std::string &path, const std::vector<RawRecord> &records,
            std::optional<uint32_t> forged_disks = {},
            std::optional<uint64_t> forged_records = {})
{
    std::vector<unsigned char> body;
    uint32_t numDisks = 0;
    for (const RawRecord &rec : records) {
        detail::putF64(body, rec.time);
        detail::putLe64(body, rec.block);
        detail::putLe32(body, rec.disk);
        detail::putLe32(body, rec.count |
                                  (rec.write ? 0x80000000u : 0u));
        numDisks = std::max(numDisks, rec.disk + 1);
    }
    uint64_t fnv = 0xcbf29ce484222325ULL;
    for (unsigned char byte : body) {
        fnv ^= byte;
        fnv *= 0x100000001b3ULL;
    }

    std::vector<unsigned char> image;
    image.insert(image.end(), tracefmt::kPctMagic,
                 tracefmt::kPctMagic + 8);
    detail::putLe32(image, tracefmt::kPctVersion);
    detail::putLe32(image, forged_disks.value_or(numDisks));
    detail::putLe64(image, forged_records.value_or(records.size()));
    detail::putLe64(image, fnv);
    detail::putF64(image, records.empty() ? 0.0 : records.back().time);
    image.insert(image.end(), body.begin(), body.end());

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    return path;
}

} // namespace pacache::test

#endif // PACACHE_TESTS_SUPPORT_RAW_PCT_HH
