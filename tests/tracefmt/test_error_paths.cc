/**
 * @file
 * Ingestion error paths: deliberately malformed inputs must fail with
 * a located, descriptive error — never a crash, never silent garbage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "temp_file.hh"
#include "tracefmt/formats.hh"
#include "tracefmt/pct.hh"

namespace pacache
{
namespace
{

using test::messageOf;
using test::tempPath;
using test::writeTempFile;

/** One raw record for hand-assembled .pct images. */
struct RawRecord
{
    double time;
    uint64_t block;
    uint32_t disk;
    uint32_t count;
    bool write;
};

void
putLe32(std::vector<unsigned char> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void
putLe64(std::vector<unsigned char> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void
putF64(std::vector<unsigned char> &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putLe64(out, bits);
}

/**
 * Assemble a syntactically valid .pct image (magic, version, correct
 * FNV-1a64 checksum) from arbitrary records — including ones the
 * writer itself would refuse, like non-monotone timestamps — with
 * optionally forged header disk and record counts.
 */
std::string
writeRawPct(const std::string &name,
            const std::vector<RawRecord> &records,
            std::optional<uint32_t> forged_disks = {},
            std::optional<uint64_t> forged_records = {})
{
    std::vector<unsigned char> body;
    uint32_t numDisks = 0;
    for (const RawRecord &rec : records) {
        putF64(body, rec.time);
        putLe64(body, rec.block);
        putLe32(body, rec.disk);
        putLe32(body, rec.count |
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
    putLe32(image, tracefmt::kPctVersion);
    putLe32(image, forged_disks.value_or(numDisks));
    putLe64(image, forged_records.value_or(records.size()));
    putLe64(image, fnv);
    putF64(image, records.empty() ? 0.0 : records.back().time);
    image.insert(image.end(), body.begin(), body.end());

    const std::string path = tempPath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    EXPECT_TRUE(out.good());
    return path;
}

TEST(PctErrors, TruncatedHeaderIsFatal)
{
    // Shorter than the 40-byte header: not even the magic fits a
    // validation pass.
    const std::string path =
        writeTempFile("trunc_header.pct", "PCTRACE1\x01");
    EXPECT_THROW(tracefmt::readPctInfo(path), std::runtime_error);
    EXPECT_THROW(tracefmt::PctBufferedSource src(path),
                 std::runtime_error);
    EXPECT_THROW(tracefmt::PctMmapSource src(path),
                 std::runtime_error);
    const std::string msg = messageOf(
        [&] { tracefmt::readPctInfo(path); });
    EXPECT_NE(msg.find("too small"), std::string::npos) << msg;
}

TEST(PctErrors, BufferedReaderDetectsChecksumCorruption)
{
    const std::string path = writeRawPct(
        "bad_fnv.pct",
        {{0.0, 1, 0, 1, false}, {1.0, 2, 0, 1, true}});
    // Corrupt one record byte; the stored checksum no longer matches.
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(tracefmt::kPctHeaderBytes + 8);
        f.put('\x5a');
    }
    const std::string msg = messageOf([&] {
        tracefmt::PctBufferedSource src(path);
    });
    EXPECT_NE(msg.find("checksum"), std::string::npos) << msg;

    // Opting out of verification defers the damage to the payload,
    // which is the documented trade-off.
    tracefmt::PctReadOptions opts;
    opts.verifyChecksum = false;
    tracefmt::PctBufferedSource lax(path, opts);
    TraceRecord rec;
    EXPECT_TRUE(lax.next(rec));
}

TEST(PctErrors, NonMonotoneTimestampsAreFatalInBothReaders)
{
    // The image is bit-valid (checksum included); only the times go
    // backwards. Readers must refuse at the offending record instead
    // of handing the simulator a time machine.
    const std::string path = writeRawPct(
        "backwards.pct",
        {{1.0, 1, 0, 1, false},
         {0.5, 2, 0, 1, false},
         {2.0, 3, 0, 1, false}});

    tracefmt::PctBufferedSource buffered(path);
    TraceRecord rec;
    ASSERT_TRUE(buffered.next(rec));
    const std::string bufferedMsg =
        messageOf([&] { buffered.next(rec); });
    EXPECT_NE(bufferedMsg.find("out-of-order time"), std::string::npos)
        << bufferedMsg;

    tracefmt::PctMmapSource mapped(path);
    ASSERT_TRUE(mapped.next(rec));
    const std::string mappedMsg = messageOf([&] { mapped.next(rec); });
    EXPECT_NE(mappedMsg.find("out-of-order time"), std::string::npos)
        << mappedMsg;
}

/** Each record reader's error on reading every record of @p path. */
std::vector<std::string>
recordReaderErrors(const std::string &path)
{
    TraceRecord rec;
    return {messageOf([&] {
                tracefmt::PctBufferedSource src(path);
                while (src.next(rec)) {
                }
            }),
            messageOf([&] {
                tracefmt::PctMmapSource src(path);
                while (src.next(rec)) {
                }
            }),
            messageOf([&] {
                tracefmt::PctMapping map(path);
                for (uint64_t r = 0; r < map.header().records; ++r)
                    map.record(r, rec);
            })};
}

TEST(PctErrors, RecordCountThatWrapsTheSizeCheckIsFatal)
{
    // 40 + (2^61 + 1) * 24 wraps to 64, the size of this one-record
    // file: the count must be bounded before it is multiplied, or the
    // readers walk 2^61 records past the end of the mapping.
    const uint64_t wrapping = (uint64_t(1) << 61) + 1;
    const std::string path = writeRawPct(
        "wrapping_count.pct", {{0.0, 1, 0, 1, false}}, {}, wrapping);
    std::vector<std::string> msgs = recordReaderErrors(path);
    msgs.push_back(messageOf([&] { tracefmt::readPctInfo(path); }));
    EXPECT_NE(msgs.back().find(std::to_string(wrapping)),
              std::string::npos);
    for (const std::string &msg : msgs)
        EXPECT_NE(msg.find("truncated or oversized"), std::string::npos)
            << msg;
}

TEST(PctErrors, RecordDiskBeyondHeaderCountIsFatal)
{
    // Consumers size their disk arrays from the header, so a record
    // on disk 5 of a "1-disk" trace must be an input error, located
    // at the record, in every reader that decodes records
    // (readPctInfo decodes only the header, which is well formed).
    const std::string path = writeRawPct(
        "disk_beyond_header.pct",
        {{0.0, 1, 0, 1, false}, {1.0, 2, 5, 1, false},
         {2.0, 3, 5, 1, true}},
        1u);
    EXPECT_EQ(tracefmt::readPctInfo(path).numDisks, 1u);
    for (const std::string &msg : recordReaderErrors(path)) {
        EXPECT_NE(msg.find("record 1 in '" + path + "': disk 5 but "
                           "the header declares 1 disks"),
                  std::string::npos)
            << msg;
    }
}

TEST(SpcErrors, SectorBeyondPackedKeyLimitIsFatal)
{
    // LBA 2^52 maps past 2^48 blocks; residency keys pack the block
    // number into 48 bits, so ingestion must reject it with a located
    // error.
    const std::string path = writeTempFile(
        "huge_lba.csv", "0,4503599627370496,4096,r,0.0\n");
    tracefmt::SpcSource src(path);
    TraceRecord rec;
    const std::string msg = messageOf([&] { src.next(rec); });
    EXPECT_NE(msg.find("2^48"), std::string::npos) << msg;
}

TEST(SpcErrors, NonNumericFieldNamesLineAndColumn)
{
    const std::string path = writeTempFile(
        "bad_field.csv",
        "0,16,4096,r,0.0\n"
        "0,banana,4096,r,0.5\n");
    tracefmt::SpcSource src(path);
    TraceRecord rec;
    ASSERT_TRUE(src.next(rec));
    const std::string msg = messageOf([&] { src.next(rec); });
    EXPECT_NE(msg.find("2"), std::string::npos)
        << "error should carry the line number: " << msg;
}

} // namespace
} // namespace pacache
