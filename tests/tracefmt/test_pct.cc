#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/raw_pct.hh"
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

/** Records no longer than kUncheckedBlocks: the sum settles last. */
Trace
shortTrace()
{
    Trace t;
    for (int i = 0; i < 6; ++i)
        t.append({0.5 * i, static_cast<DiskId>(i % 3),
                  static_cast<BlockNum>(100 + 7 * i),
                  static_cast<uint32_t>(1 + i % 4), i % 2 == 1});
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
    // Opening only maps the file; the drain settles the sum.
    tracefmt::PctMmapSource src(path);
    const std::string msg = messageOf([&] {
        TraceRecord rec;
        while (src.next(rec)) {
        }
    });
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

TEST(Pct, FlippedLastRecordFailsBeforeItIsReturned)
{
    const Trace t = shortTrace();
    const std::string path = writePctOf(t, "corrupt_last.pct");
    std::string bytes = slurp(path);
    // Flip a bit inside the last record's block-number field.
    bytes[tracefmt::kPctHeaderBytes +
          (t.size() - 1) * tracefmt::kPctRecordBytes + 9] ^= 0x10;
    spit(path, bytes);

    tracefmt::PctMmapSource src(path);
    TraceRecord rec;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        ASSERT_TRUE(src.next(rec)) << "record " << i;
        EXPECT_EQ(rec, t[i]) << "record " << i;
    }
    // The call that would return the last record throws instead and
    // leaves the output record untouched.
    const TraceRecord before = rec;
    const std::string msg = messageOf([&] { src.next(rec); });
    EXPECT_NE(msg.find("checksum mismatch in '" + path + "'"),
              std::string::npos)
        << msg;
    EXPECT_EQ(rec, before);
}

TEST(Pct, RewindRestartsTheChecksum)
{
    const Trace t = shortTrace();
    const std::string clean = writePctOf(t, "rewind_clean.pct");
    // A clean file drains twice without error, and so does a reader
    // rewound halfway through its first pass.
    tracefmt::PctMmapSource src(clean);
    TraceRecord rec;
    for (int pass = 0; pass < 2; ++pass) {
        std::size_t n = 0;
        while (src.next(rec))
            EXPECT_EQ(rec, t[n++]);
        EXPECT_EQ(n, t.size());
        src.rewind();
    }
    tracefmt::PctMmapSource half(clean);
    ASSERT_TRUE(half.next(rec));
    ASSERT_TRUE(half.next(rec));
    half.rewind();
    std::size_t n = 0;
    while (half.next(rec))
        EXPECT_EQ(rec, t[n++]);
    EXPECT_EQ(n, t.size());

    // A corrupt file still fails a full drain after a rewind
    // mid-stream.
    std::string bytes = slurp(clean);
    bytes[tracefmt::kPctHeaderBytes + 9] ^= 0x01; // record 0's block
    const std::string corrupt = tempPath("rewind_corrupt.pct");
    spit(corrupt, bytes);
    tracefmt::PctMmapSource bad(corrupt);
    ASSERT_TRUE(bad.next(rec));
    ASSERT_TRUE(bad.next(rec));
    bad.rewind();
    const std::string msg = messageOf([&] {
        while (bad.next(rec)) {
        }
    });
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
}

TEST(Pct, LongRecordWaitsForTheChecksum)
{
    // Record 8 of 200 000 claims 2^31 - 1 blocks. The reader must
    // settle the sum of the whole file before it hands that record
    // on, so the damaged length never reaches a replay.
    std::vector<test::RawRecord> recs;
    for (uint32_t i = 0; i < 200000; ++i)
        recs.push_back({0.001 * i, i % 5000, i % 8, 1, i % 3 == 0});
    const std::string path =
        test::writeRawPct(tempPath("long_record.pct"), recs);
    std::string bytes = slurp(path);
    const std::size_t len_at =
        tracefmt::kPctHeaderBytes + 8 * tracefmt::kPctRecordBytes + 20;
    bytes.replace(len_at, 4, "\xff\xff\xff\x7f");
    spit(path, bytes);

    const auto start = std::chrono::steady_clock::now();
    tracefmt::PctMmapSource src(path);
    TraceRecord rec;
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(src.next(rec)) << "record " << i;
    const TraceRecord before = rec;
    const std::string msg = messageOf([&] { src.next(rec); });
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
    EXPECT_EQ(rec, before);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
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

/** Resident kB of this process's mappings of @p path (/proc/self/smaps). */
long
mappedResidentKb(const std::string &path)
{
    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    bool ours = false;
    long kb = 0;
    while (std::getline(smaps, line)) {
        if (line.rfind("Rss:", 0) == 0) {
            if (ours)
                kb += std::stol(line.substr(4));
        } else if (line.find(':') == std::string::npos ||
                   line.find(' ') < line.find(':')) {
            // A mapping's header line: "lo-hi perms offset dev inode path".
            ours = line.size() >= path.size() &&
                   line.compare(line.size() - path.size(), path.size(),
                                path) == 0;
        }
    }
    return kb;
}

TEST(Pct, OpeningMapsNoPage)
{
    // Opening reads the header from the file, not through the mapping:
    // a fault there can map the whole page-cache folio around it, which
    // would stay resident until a pass first releases pages (through a
    // whole oracle build, for the replay source).
    Trace t;
    for (int i = 0; i < 100000; ++i)
        t.append({i * 0.01, static_cast<DiskId>(i % 4),
                  static_cast<BlockNum>(i), 1, false});
    const std::string path = writePctOf(t, "no_page_on_open.pct");
    tracefmt::PctMmapSource src(path);
    const tracefmt::PctMapping map(path);
    EXPECT_EQ(src.header().records, t.size());
    EXPECT_EQ(map.header().records, t.size());
    EXPECT_EQ(mappedResidentKb(path), 0);
    TraceRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_GT(mappedResidentKb(path), 0); // the probe sees the mapping
}

TEST(Pct, MissingFileIsFatalWithPath)
{
    const std::string msg = messageOf(
        [] { tracefmt::PctMmapSource src("/no/such/file.pct"); });
    EXPECT_NE(msg.find("/no/such/file.pct"), std::string::npos) << msg;
}

} // namespace
} // namespace pacache
