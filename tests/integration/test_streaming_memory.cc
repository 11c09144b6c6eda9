/**
 * @file
 * On-line streaming memory does not grow with the trace: streaming
 * four times as many records through an on-line policy must leave
 * the process's peak RSS where the shorter stream put it.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "trace/stream_gen.hh"
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

} // namespace
} // namespace pacache
