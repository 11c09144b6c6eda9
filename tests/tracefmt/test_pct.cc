#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "temp_file.hh"
#include "tracefmt/pct.hh"

namespace pacache
{
namespace
{

using test::messageOf;
using test::tempPath;

Trace
sampleTrace()
{
    Trace t;
    t.append({0.0, 0, 10, 2, false});
    t.append({0.125, 3, 1ULL << 40, 1, true}); // > 32-bit block number
    t.append({0.125, 1, 20, 0x7fffffff, false}); // max request length
    t.append({2.5, 2, 30, 1, true});
    return t;
}

std::string
writePctOf(const Trace &t, const std::string &name)
{
    const std::string path = tempPath(name);
    tracefmt::MemorySource src(t);
    tracefmt::writePct(path, src);
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

void
expectRoundTrip(const Trace &t, const std::string &path)
{
    tracefmt::PctMmapSource src(path);
    TraceRecord rec;
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_TRUE(src.next(rec)) << "record " << i;
        EXPECT_EQ(rec, t[i]) << "record " << i;
    }
    EXPECT_FALSE(src.next(rec));

    // Rewind replays identically.
    src.rewind();
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec, t[0]);
}

TEST(Pct, RoundTripsThroughBothReaders)
{
    const Trace t = sampleTrace();
    const std::string path = writePctOf(t, "roundtrip.pct");
    expectRoundTrip(t, path);

    const tracefmt::PctMapping map(path);
    ASSERT_EQ(map.header().records, t.size());
    TraceRecord rec;
    for (std::size_t i = 0; i < t.size(); ++i) {
        map.record(i, rec);
        EXPECT_EQ(rec, t[i]) << "record " << i;
    }
}

TEST(Pct, HeaderRecordsExactMetadata)
{
    const Trace t = sampleTrace();
    const std::string path = writePctOf(t, "header.pct");
    const tracefmt::PctInfo info = tracefmt::readPctInfo(path);
    EXPECT_EQ(info.version, tracefmt::kPctVersion);
    EXPECT_EQ(info.records, t.size());
    EXPECT_EQ(info.numDisks, 4u);
    EXPECT_DOUBLE_EQ(info.endTime, 2.5);
    EXPECT_NE(info.checksum, 0u);

    // The readers surface the same values as hints.
    tracefmt::PctMmapSource src(path);
    EXPECT_EQ(src.sizeHint(), t.size());
    EXPECT_EQ(src.numDisksHint(), 4u);
    EXPECT_DOUBLE_EQ(src.endTimeHint(), 2.5);
}

TEST(Pct, FileSizeMatchesTheFixedLayout)
{
    const Trace t = sampleTrace();
    const std::string path = writePctOf(t, "layout.pct");
    EXPECT_EQ(slurp(path).size(),
              tracefmt::kPctHeaderBytes +
                  t.size() * tracefmt::kPctRecordBytes);
}

TEST(Pct, EmptyTraceRoundTrips)
{
    const Trace t;
    const std::string path = writePctOf(t, "empty.pct");
    const tracefmt::PctInfo info = tracefmt::readPctInfo(path);
    EXPECT_EQ(info.records, 0u);
    tracefmt::PctMmapSource src(path);
    TraceRecord rec;
    EXPECT_FALSE(src.next(rec));
}

TEST(Pct, WriterRejectsOutOfOrderAppends)
{
    const std::string path = tempPath("order.pct");
    tracefmt::PctWriter writer(path);
    writer.append({1.0, 0, 0, 1, false});
    EXPECT_ANY_THROW(writer.append({0.5, 0, 1, 1, false}));
}

TEST(Pct, RejectsBadMagic)
{
    const Trace t = sampleTrace();
    const std::string path = writePctOf(t, "badmagic.pct");
    std::string bytes = slurp(path);
    bytes[0] = 'X';
    spit(path, bytes);
    EXPECT_ANY_THROW(tracefmt::PctMmapSource src(path));
    EXPECT_ANY_THROW(tracefmt::PctMapping map(path));
}

TEST(Pct, RejectsUnknownVersion)
{
    const Trace t = sampleTrace();
    const std::string path = writePctOf(t, "badversion.pct");
    std::string bytes = slurp(path);
    bytes[8] = 99; // version field, little-endian low byte
    spit(path, bytes);
    const std::string msg = messageOf(
        [&] { tracefmt::PctMmapSource src(path); });
    EXPECT_NE(msg.find("version"), std::string::npos) << msg;
}

TEST(Pct, RejectsTruncatedFiles)
{
    const Trace t = sampleTrace();
    const std::string path = writePctOf(t, "truncated.pct");
    const std::string bytes = slurp(path);
    spit(path, bytes.substr(0, bytes.size() - 5));
    EXPECT_ANY_THROW(tracefmt::PctMmapSource src(path));
    EXPECT_ANY_THROW(tracefmt::PctMapping map(path));
}

TEST(Pct, ChecksumCatchesFlippedRecordBytes)
{
    const Trace t = sampleTrace();
    const std::string path = writePctOf(t, "corrupt.pct");
    std::string bytes = slurp(path);
    // Flip a bit inside the second record's block-number field.
    bytes[tracefmt::kPctHeaderBytes + tracefmt::kPctRecordBytes + 9] ^=
        0x40;
    spit(path, bytes);
    const std::string msg = messageOf(
        [&] { tracefmt::PctMmapSource src(path); });
    EXPECT_NE(msg.find("checksum"), std::string::npos) << msg;

    // Opting out of verification reads the (wrong) record fine.
    tracefmt::PctReadOptions opts;
    opts.verifyChecksum = false;
    tracefmt::PctMmapSource lax(path, opts);
    TraceRecord rec;
    ASSERT_TRUE(lax.next(rec));
    ASSERT_TRUE(lax.next(rec));
    EXPECT_NE(rec.block, t[1].block);
}

TEST(Pct, MadviseOptionsDoNotChangeDecoding)
{
    // More than two replay-hint batches (64Ki records each): the
    // release-behind and prefetch madvise calls tune paging only and
    // must never alter what the reader decodes, including across a
    // rewind that re-reads pages an earlier batch already dropped.
    Trace t;
    constexpr int kRecords = 2 * 65536 + 1000;
    for (int i = 0; i < kRecords; ++i)
        t.append({i * 0.25, static_cast<DiskId>(i % 4),
                  static_cast<BlockNum>(i) * 131, 1, i % 3 == 0});
    const std::string path = writePctOf(t, "madvise.pct");

    tracefmt::PctMmapSource src(path);
    TraceRecord rec;
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_TRUE(src.next(rec)) << "record " << i;
        ASSERT_EQ(rec, t[i]) << "record " << i;
    }
    EXPECT_FALSE(src.next(rec));
    src.rewind();
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_TRUE(src.next(rec)) << "rewound record " << i;
        ASSERT_EQ(rec, t[i]) << "rewound record " << i;
    }
}

TEST(Pct, MissingFileIsFatalWithPath)
{
    const std::string msg = messageOf(
        [] { tracefmt::PctMmapSource src("/no/such/file.pct"); });
    EXPECT_NE(msg.find("/no/such/file.pct"), std::string::npos) << msg;
}

} // namespace
} // namespace pacache
