/**
 * @file
 * Ingestion error paths: deliberately malformed inputs must fail with
 * a located, descriptive error — never a crash, never silent garbage.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "support/raw_pct.hh"
#include "temp_file.hh"
#include "tracefmt/formats.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/text_source.hh"
#include "tracefmt/trace_source.hh"

namespace pacache
{
namespace
{

using test::inputErrorOf;
using test::messageOf;
using test::RawRecord;
using test::tempPath;
using test::writeRawPct;
using test::writeTempFile;

TEST(PctErrors, TruncatedHeaderIsFatal)
{
    // Shorter than the 40-byte header: not even the magic fits a
    // validation pass.
    const std::string path =
        writeTempFile("trunc_header.pct", "PCTRACE1\x01");
    EXPECT_THROW(tracefmt::readPctInfo(path), std::runtime_error);
    EXPECT_THROW(tracefmt::PctMmapSource src(path),
                 std::runtime_error);
    const std::string msg = messageOf(
        [&] { tracefmt::readPctInfo(path); });
    EXPECT_NE(msg.find("too small"), std::string::npos) << msg;
}

TEST(PctErrors, NonMonotoneTimestampsAreFatalInBothReaders)
{
    // The image is bit-valid (checksum included); only the times go
    // backwards. Readers must refuse at the offending record instead
    // of handing the simulator a time machine.
    const std::string path = writeRawPct(
        tempPath("backwards.pct"),
        {{1.0, 1, 0, 1, false},
         {0.5, 2, 0, 1, false},
         {2.0, 3, 0, 1, false}});

    tracefmt::PctMmapSource mapped(path);
    TraceRecord rec;
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
    return {inputErrorOf([&] {
                tracefmt::PctMmapSource src(path);
                while (src.next(rec)) {
                }
            }),
            inputErrorOf([&] {
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
    const std::string path =
        writeRawPct(tempPath("wrapping_count.pct"),
                    {{0.0, 1, 0, 1, false}}, {}, wrapping);
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
        tempPath("disk_beyond_header.pct"),
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

TEST(PctErrors, RecordBeyondPackedKeySpaceIsFatal)
{
    // Bit-valid images whose record 1 does not fit BlockId's packed
    // key (16 disk bits, 48 block bits): it starts at block 2^48, its
    // extent crosses 2^48, or its disk is 2^16 under a header that
    // declares 2^16 + 1 disks. Both readers, and a streamed run on
    // top of them, must refuse it as a located input error rather
    // than panic inside the simulator.
    const uint64_t limit = uint64_t(1) << 48;
    const struct
    {
        const char *name;
        RawRecord bad;
    } cases[] = {
        {"block_at_key_limit.pct", {1.0, limit, 0, 1, false}},
        {"extent_across_key_limit.pct", {1.0, limit - 1, 0, 2, true}},
        {"disk_beyond_key_bits.pct", {1.0, 7, 1u << 16, 1, false}},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path = writeRawPct(
            tempPath(c.name),
            {{0.0, 1, 0, 1, false}, c.bad, {2.0, 3, 0, 1, false}});
        std::vector<std::string> msgs = recordReaderErrors(path);
        msgs.push_back(inputErrorOf([&] {
            tracefmt::PctMmapSource src(path);
            ExperimentConfig cfg;
            cfg.cacheBlocks = 16;
            runExperiment(src, cfg);
        }));
        for (const std::string &msg : msgs) {
            EXPECT_NE(msg.find("record 1 in '" + path + "'"),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("packed key space"), std::string::npos)
                << msg;
        }
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

TEST(LineErrors, UnpackableRecordsFailWithTheirLine)
{
    // A record whose extent does not fit BlockId's packed key (16
    // disk bits, 48 block bits) must fail as a located input error at
    // its own line in every line-based reader, not panic inside the
    // cache: a text record at block 2^50, a text extent crossing
    // 2^48, a text disk of 2^16, and an SPC ASU of 2^16.
    const struct
    {
        const char *name;
        const char *bad;
        bool spc;
    } cases[] = {
        {"block_2_50.txt", "1.0 0 1125899906842624 1 R", false},
        {"extent_across_2_48.txt", "1.0 0 281474976710655 2 W", false},
        {"disk_2_16.txt", "1.0 65536 7 1 R", false},
        {"asu_2_16.csv", "65536,100,4096,R,1.0", true},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path = writeTempFile(
            c.name, c.spc ? std::string("0,16,4096,r,0.0\n") + c.bad +
                                "\n0,32,4096,r,2.0\n"
                          : std::string("0.0 0 1 1 R\n") + c.bad +
                                "\n2.0 0 3 1 R\n");
        const std::string msg = inputErrorOf([&] {
            if (c.spc) {
                tracefmt::SpcSource src(path);
                tracefmt::readAll(src);
            } else {
                tracefmt::TextSource src(path);
                tracefmt::readAll(src);
            }
        });
        EXPECT_NE(msg.find(path + ":2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("packed key space"), std::string::npos)
            << msg;
    }
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
