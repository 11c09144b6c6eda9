/**
 * @file
 * The ingestion subsystem's acceptance test: driving runExperiment()
 * from a streaming source — text, binary .pct, or in-memory adapter —
 * must produce statistics bit-identical to the materialized path on
 * the same workload.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "tracefmt/detect.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/text_source.hh"
#include "tracefmt/trace_source.hh"

#include "../tracefmt/temp_file.hh"

namespace pacache
{
namespace
{

Trace
workload(uint64_t seed = 7)
{
    SyntheticParams p;
    p.numRequests = 3000;
    p.numDisks = 4;
    p.arrival = ArrivalModel::exponential(50.0);
    p.writeRatio = 0.3;
    p.address.footprintBlocks = 600;
    p.seed = seed;
    return generateSynthetic(p);
}

/** Every statistic the report prints, compared exactly. */
void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.cache.accesses, b.cache.accesses);
    EXPECT_EQ(a.cache.hits, b.cache.hits);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    EXPECT_EQ(a.cache.evictions, b.cache.evictions);
    EXPECT_EQ(a.energy.total(), b.energy.total());
    EXPECT_EQ(a.energy.serviceEnergy, b.energy.serviceEnergy);
    EXPECT_EQ(a.energy.spinUps, b.energy.spinUps);
    EXPECT_EQ(a.energy.spinDowns, b.energy.spinDowns);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.responses.count(), b.responses.count());
    EXPECT_EQ(a.responses.mean(), b.responses.mean());
    EXPECT_EQ(a.responses.max(), b.responses.max());
    EXPECT_EQ(a.responses.percentile(0.95), b.responses.percentile(0.95));
    ASSERT_EQ(a.perDisk.size(), b.perDisk.size());
    for (std::size_t d = 0; d < a.perDisk.size(); ++d)
        EXPECT_EQ(a.perDisk[d].total(), b.perDisk[d].total()) << d;
}

TEST(StreamingExperiment, MemorySourceMatchesInMemoryRun)
{
    const Trace t = workload();
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::LRU;
    cfg.cacheBlocks = 256;

    const ExperimentResult direct = runExperiment(t, cfg);
    tracefmt::MemorySource src(t);
    const ExperimentResult streamed = runExperiment(src, cfg);
    expectIdentical(direct, streamed);
}

TEST(StreamingExperiment, TextAndPctFilesMatchBitForBit)
{
    // Both runs descend from the same text file, so even the parsed
    // doubles are identical; .pct stores them losslessly.
    const Trace generated = workload(11);
    const std::string txt = test::tempPath("e2e_stream.txt");
    writeTraceFile(txt, generated);
    const Trace t = readTraceFile(txt);

    const std::string pct = test::tempPath("e2e_stream.pct");
    {
        tracefmt::TextSource src(txt);
        tracefmt::writePct(pct, src);
    }

    ExperimentConfig cfg;
    cfg.policy = PolicyKind::ARC;
    cfg.dpm = DpmChoice::Practical;
    cfg.cacheBlocks = 200;
    cfg.storage.writePolicy = WritePolicy::WriteBack;

    const ExperimentResult direct = runExperiment(t, cfg);

    tracefmt::TextSource text_src(txt);
    const ExperimentResult from_text = runExperiment(text_src, cfg);
    expectIdentical(direct, from_text);

    tracefmt::PctMmapSource mmap_src(pct);
    const ExperimentResult from_pct = runExperiment(mmap_src, cfg);
    expectIdentical(direct, from_pct);
}

TEST(StreamingExperiment, OfflinePoliciesMaterializeTransparently)
{
    const Trace t = workload(23);
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::Belady;
    cfg.cacheBlocks = 128;

    const ExperimentResult direct = runExperiment(t, cfg);
    tracefmt::MemorySource src(t);
    const ExperimentResult streamed = runExperiment(src, cfg);
    expectIdentical(direct, streamed);
}

TEST(StreamingExperiment, StreamingWithWritePoliciesMatches)
{
    const Trace t = workload(31);
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::PALRU;
    cfg.storage.writePolicy = WritePolicy::WriteBackEagerUpdate;
    cfg.cacheBlocks = 256;

    const ExperimentResult direct = runExperiment(t, cfg);
    tracefmt::MemorySource src(t);
    const ExperimentResult streamed = runExperiment(src, cfg);
    expectIdentical(direct, streamed);
}

TEST(StreamingExperiment, EmptySourceIsRejected)
{
    const Trace t;
    tracefmt::MemorySource src(t);
    ExperimentConfig cfg;
    EXPECT_ANY_THROW(runExperiment(src, cfg));
}

} // namespace
} // namespace pacache
