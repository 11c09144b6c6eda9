/**
 * @file
 * Streaming memory does not grow with the trace: streaming four
 * times as many records through an on-line policy, or through OPG
 * over its out-of-core future, must leave the process's peak RSS
 * where the shorter stream put it.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "core/experiment.hh"
#include "support/temp_dir.hh"
#include "trace/stream_gen.hh"
#include "tracefmt/pct.hh"
#include "util/mem.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PACACHE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PACACHE_TEST_SANITIZED 1
#endif
#endif

namespace pacache
{
namespace
{

constexpr uint64_t kMiB = 1024 * 1024;

class StreamingMemory : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
#ifdef PACACHE_TEST_SANITIZED
        GTEST_SKIP() << "sanitizer allocators do not return memory";
#endif
        if (peakRssBytes() == 0)
            GTEST_SKIP() << "no peak RSS probe on this host";
    }

    /**
     * Stream @p records scaled-OLTP records over 64 disks through
     * PA-LRU (write-back, 1024-block cache) under @p dpm, and return
     * the peak RSS afterwards.
     */
    static uint64_t
    peakAfter(uint64_t records, DpmChoice dpm)
    {
        StreamingSyntheticSource source(scaledOltpStreams(64), 0.0, 42,
                                        records);
        ExperimentConfig cfg;
        cfg.policy = PolicyKind::PALRU;
        cfg.cacheBlocks = 1024;
        cfg.dpm = dpm;
        cfg.storage.writePolicy = WritePolicy::WriteBack;
        const ExperimentResult r = runExperiment(source, cfg);
        EXPECT_GE(r.cache.accesses, records);
        return peakRssBytes();
    }

    static void
    expectFlatPeak(DpmChoice dpm)
    {
        const uint64_t small = peakAfter(250000, dpm);
        const uint64_t large = peakAfter(1000000, dpm);
        EXPECT_LE(large, small + 2 * kMiB)
            << "peak RSS grew from " << small / kMiB << " MiB to "
            << large / kMiB << " MiB with four times the records";
    }
};

TEST_F(StreamingMemory, PracticalDpmPeakDoesNotGrowWithTrace)
{
    expectFlatPeak(DpmChoice::Practical);
}

TEST_F(StreamingMemory, OracleDpmPeakDoesNotGrowWithTrace)
{
    expectFlatPeak(DpmChoice::Oracle);
}

/**
 * Write @p records over a fixed footprint (16 384 blocks on 4 disks)
 * to a .pct, replay them through OPG over its out-of-core future
 * (64 Ki window, 16 MiB oracle budget, 1024-block cache), and return
 * the peak RSS afterwards. The replay source skips the checksum
 * pass, whose own residency grows with the file.
 */
uint64_t
windowedOpgPeakAfter(uint64_t records)
{
    const std::string path =
        test::processScopedPath("windowed_opg_peak.pct");
    {
        tracefmt::PctWriter out(path);
        uint64_t x = 1;
        TraceRecord rec;
        for (uint64_t i = 0; i < records; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            rec.time = 0.01 * static_cast<double>(i);
            rec.disk = static_cast<DiskId>(i % 4);
            rec.block = (x >> 33) % 4096;
            rec.numBlocks = 1;
            rec.write = i % 5 == 0;
            out.append(rec);
        }
        out.finish();
    }
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.cacheBlocks = 1024;
    cfg.windowAccesses = std::size_t(64) << 10;
    cfg.oracleMemBudget = std::size_t(16) << 20;
    tracefmt::PctReadOptions ropts;
    ropts.verifyChecksum = false;
    {
        tracefmt::PctMmapSource source(path, ropts);
        const ExperimentResult r = runExperiment(source, cfg);
        EXPECT_EQ(r.cache.accesses, records);
    }
    std::filesystem::remove(path);
    return peakRssBytes();
}

TEST_F(StreamingMemory, WindowedOraclePeakDoesNotGrowWithTrace)
{
    const uint64_t small = windowedOpgPeakAfter(1000000);
    const uint64_t large = windowedOpgPeakAfter(4000000);
    EXPECT_LE(large, small + 4 * kMiB)
        << "peak RSS grew from " << small / kMiB << " MiB to "
        << large / kMiB << " MiB with four times the records";
}

} // namespace
} // namespace pacache
