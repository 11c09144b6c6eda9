#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "trace/stats.hh"
#include "trace/workloads.hh"

namespace pacache
{
namespace
{

OltpParams
smallOltp()
{
    OltpParams p;
    p.duration = 600; // keep tests fast
    return p;
}

CelloParams
smallCello()
{
    CelloParams p;
    p.duration = 60;
    return p;
}

TEST(Workloads, OltpShape)
{
    const TraceStats s = characterize(makeOltpTrace(smallOltp()));
    EXPECT_EQ(s.disks, 21u);
    EXPECT_NEAR(s.writeRatio, 0.22, 0.04);
    EXPECT_GT(s.requests, 500u);
}

TEST(Workloads, OltpBusyDisksDominateTraffic)
{
    const OltpParams p = smallOltp();
    const TraceStats s = characterize(makeOltpTrace(p));
    uint64_t busy = 0, quiet = 0;
    for (uint32_t d = 0; d < s.disks; ++d) {
        if (d < p.busyDisks)
            busy += s.perDiskRequests[d];
        else
            quiet += s.perDiskRequests[d];
    }
    EXPECT_GT(busy, quiet);
}

TEST(Workloads, OltpQuietDisksHaveSmallFootprints)
{
    const OltpParams p = smallOltp();
    const TraceStats s = characterize(makeOltpTrace(p));
    for (uint32_t d = p.busyDisks; d < s.disks; ++d)
        EXPECT_LE(s.perDiskUnique[d], p.quietFootprint);
}

TEST(Workloads, OltpQuietDisksReuseBlocks)
{
    // Quiet disks must re-reference: unique blocks well below
    // accesses once the stream is long enough.
    OltpParams p = smallOltp();
    p.duration = 3600;
    const TraceStats s = characterize(makeOltpTrace(p));
    for (uint32_t d = p.busyDisks; d < s.disks; ++d) {
        if (s.perDiskRequests[d] > 200) {
            EXPECT_LT(s.perDiskUnique[d],
                      s.perDiskRequests[d] * 8 / 10);
        }
    }
}

TEST(Workloads, CelloShape)
{
    const TraceStats s = characterize(makeCelloTrace(smallCello()));
    EXPECT_EQ(s.disks, 19u);
    EXPECT_NEAR(s.writeRatio, 0.38, 0.05);
    // ~5.6ms overall inter-arrival.
    EXPECT_LT(s.meanInterArrival, 0.02);
}

TEST(Workloads, CelloIsColdMissDominated)
{
    const TraceStats s = characterize(makeCelloTrace(smallCello()));
    // Most accesses touch blocks never seen before (paper: 64%).
    EXPECT_GT(static_cast<double>(s.uniqueBlocks) /
                  static_cast<double>(s.requests),
              0.45);
}

TEST(Workloads, Deterministic)
{
    const Trace a = makeOltpTrace(smallOltp());
    const Trace b = makeOltpTrace(smallOltp());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(a.size(), 500); ++i)
        EXPECT_EQ(a[i], b[i]);
}

/** FNV-1a over every field of every record, in trace order. */
uint64_t
fingerprint(const Trace &t)
{
    uint64_t h = 14695981039346656037ULL;
    const auto mix = [&h](uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (const TraceRecord &r : t) {
        mix(std::bit_cast<uint64_t>(r.time));
        mix(r.disk);
        mix(r.block);
        mix(r.numBlocks);
        mix(r.write);
    }
    return h;
}

TEST(Workloads, DefaultTracesMatchGoldenFingerprints)
{
    // Golden values for the default OLTP and Cello traces: any change
    // to per-stream seeding, the time-order merge or the generators'
    // RNG use shows up here, record by record.
    const Trace oltp = makeOltpTrace();
    EXPECT_EQ(oltp.size(), 91644u);
    EXPECT_EQ(fingerprint(oltp), 0x6ce5081e7425c03bULL);
    const Trace cello = makeCelloTrace();
    EXPECT_EQ(cello.size(), 196758u);
    EXPECT_EQ(fingerprint(cello), 0xcf9a3b58607afbd1ULL);
}

} // namespace
} // namespace pacache
