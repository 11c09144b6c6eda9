/**
 * @file
 * Golden equivalence suite for the out-of-core oracle path and the
 * disk-sharded replay (PR: windowed offline oracles + disk-sharded
 * streaming).
 *
 * The windowed replay (runExperiment over a streaming source, which
 * builds the oracle's future out of core) must be BIT-identical to
 * the in-memory oracle on the same workload — evictions, counters,
 * every energy cell of the per-disk ledger breakdown — for every
 * window size, including window 1 and windows past the trace
 * length. The sharded replay must be invariant in
 * the worker count, must equal per-shard streams merged by owner,
 * at one shard must degenerate to the plain streaming run, and must
 * fail a corrupt input with the reader's own error.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

#include "core/experiment.hh"
#include "core/sim_stack.hh"
#include "obs/energy_ledger.hh"
#include "runner/shard_replay.hh"
#include "support/raw_pct.hh"
#include "trace/synthetic.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/trace_source.hh"

#include "../tracefmt/temp_file.hh"

namespace pacache
{
namespace
{

Trace
workload(uint64_t seed = 17, uint32_t disks = 6)
{
    SyntheticParams p;
    p.numRequests = 2500;
    p.numDisks = disks;
    p.arrival = ArrivalModel::pareto(60.0);
    p.writeRatio = 0.25;
    p.address.footprintBlocks = 300;
    p.seed = seed;
    return generateSynthetic(p);
}

std::string
writeTracePct(const Trace &t, const std::string &name)
{
    const std::string path = test::tempPath(name);
    tracefmt::MemorySource src(t);
    tracefmt::writePct(path, src);
    return path;
}

/** One EnergyStats breakdown, cell by cell (the ledger rows). */
void
expectSameBreakdown(const EnergyStats &a, const EnergyStats &b,
                    const char *what)
{
    EXPECT_EQ(a.total(), b.total()) << what;
    EXPECT_EQ(a.serviceEnergy, b.serviceEnergy) << what;
    EXPECT_EQ(a.spinUpEnergy, b.spinUpEnergy) << what;
    EXPECT_EQ(a.spinDownEnergy, b.spinDownEnergy) << what;
    EXPECT_EQ(a.spinUps, b.spinUps) << what;
    EXPECT_EQ(a.spinDowns, b.spinDowns) << what;
    EXPECT_EQ(a.requests, b.requests) << what;
    ASSERT_EQ(a.idleEnergyPerMode.size(), b.idleEnergyPerMode.size());
    for (std::size_t m = 0; m < a.idleEnergyPerMode.size(); ++m)
        EXPECT_EQ(a.idleEnergyPerMode[m], b.idleEnergyPerMode[m])
            << what << " mode " << m;
    for (std::size_t c = 0; c < kNumWakeCauses; ++c) {
        EXPECT_EQ(a.spinUpsByCause[c], b.spinUpsByCause[c]) << what;
        EXPECT_EQ(a.spinUpEnergyByCause[c], b.spinUpEnergyByCause[c])
            << what;
    }
}

/** Every statistic a run produces, compared exactly (not near). */
void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.cache.accesses, b.cache.accesses);
    EXPECT_EQ(a.cache.hits, b.cache.hits);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    EXPECT_EQ(a.cache.evictions, b.cache.evictions);
    EXPECT_EQ(a.cache.coldMisses, b.cache.coldMisses);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.responses.count(), b.responses.count());
    EXPECT_EQ(a.responses.mean(), b.responses.mean());
    EXPECT_EQ(a.responses.max(), b.responses.max());
    expectSameBreakdown(a.energy, b.energy, "aggregate");
    ASSERT_EQ(a.perDisk.size(), b.perDisk.size());
    for (std::size_t d = 0; d < a.perDisk.size(); ++d)
        expectSameBreakdown(a.perDisk[d], b.perDisk[d], "per-disk");
    // The attribution ledger both runs imply must reconcile too.
    obs::EnergyLedger la, lb;
    for (std::size_t d = 0; d < a.perDisk.size(); ++d) {
        la.addDisk("disk" + std::to_string(d), a.perDisk[d]);
        lb.addDisk("disk" + std::to_string(d), b.perDisk[d]);
    }
    EXPECT_TRUE(la.conserves());
    EXPECT_TRUE(lb.conserves());
    EXPECT_EQ(la.total().total(), lb.total().total());
    EXPECT_EQ(a.diskAccesses, b.diskAccesses);
    EXPECT_EQ(a.diskMeanInterArrival, b.diskMeanInterArrival);
    EXPECT_EQ(a.logWrites, b.logWrites);
    EXPECT_EQ(a.logServiceEnergy, b.logServiceEnergy);
    EXPECT_EQ(a.prefetchedBlocks, b.prefetchedBlocks);
}

class WindowedOracleEquivalence
    : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(WindowedOracleEquivalence, MatchesMaterializedForEveryWindow)
{
    const Trace t = workload();
    const std::string pct = writeTracePct(t, "winoracle.pct");

    ExperimentConfig cfg;
    cfg.policy = GetParam();
    cfg.dpm = DpmChoice::Oracle;
    cfg.cacheBlocks = 220;
    const ExperimentResult materialized = runExperiment(t, cfg);

    // Windows 1, around a power of two, "infinite", and 0, the
    // default window.
    const std::size_t windows[] = {1, 255, 256, 257,
                                   std::size_t(1) << 20, 0};
    for (const std::size_t w : windows) {
        SCOPED_TRACE("window " + std::to_string(w));
        cfg.windowAccesses = w;
        tracefmt::PctMmapSource src(pct);
        const ExperimentResult windowed = runExperiment(src, cfg);
        expectIdentical(materialized, windowed);
    }
}

TEST_P(WindowedOracleEquivalence, PracticalDpmAndWriteBackMatch)
{
    // A second point in config space: on-line DPM pricing and a
    // write-back cache, where eviction order feeds dirty flushes.
    const Trace t = workload(29);
    const std::string pct = writeTracePct(t, "winoracle_wb.pct");

    ExperimentConfig cfg;
    cfg.policy = GetParam();
    cfg.dpm = DpmChoice::Practical;
    cfg.storage.writePolicy = WritePolicy::WriteBack;
    cfg.cacheBlocks = 180;
    const ExperimentResult materialized = runExperiment(t, cfg);

    cfg.windowAccesses = 100;
    tracefmt::PctMmapSource src(pct);
    const ExperimentResult windowed = runExperiment(src, cfg);
    expectIdentical(materialized, windowed);
}

INSTANTIATE_TEST_SUITE_P(Oracles, WindowedOracleEquivalence,
                         ::testing::Values(PolicyKind::Belady,
                                           PolicyKind::OPG),
                         [](const auto &info) {
                             return info.param == PolicyKind::OPG
                                        ? "OPG"
                                        : "Belady";
                         });

TEST(WindowedOracle, NonPctSourcesSpillTransparently)
{
    // A MemorySource has no backing .pct file; the windowed path
    // must spill it to a temporary one and still match.
    const Trace t = workload(41);
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.cacheBlocks = 200;
    const ExperimentResult materialized = runExperiment(t, cfg);

    cfg.windowAccesses = 64;
    tracefmt::MemorySource src(t);
    const ExperimentResult windowed = runExperiment(src, cfg);
    expectIdentical(materialized, windowed);
}

TEST(ShardedReplay, InvariantInWorkerCount)
{
    const Trace t = workload(53, 9);
    const std::string pct = writeTracePct(t, "shard_jobs.pct");
    for (const PolicyKind policy :
         {PolicyKind::OPG, PolicyKind::LRU}) {
        ExperimentConfig cfg;
        cfg.policy = policy;
        cfg.cacheBlocks = 240;
        runner::ShardReplayOptions opts;
        opts.shards = 4;
        opts.jobs = 1;
        const ExperimentResult serial =
            runner::runShardedExperiment(pct, cfg, opts);
        opts.jobs = 5;
        const ExperimentResult parallel =
            runner::runShardedExperiment(pct, cfg, opts);
        expectIdentical(serial, parallel);
    }
}

TEST(ShardedReplay, OneShardDegeneratesToPlainStreaming)
{
    const Trace t = workload(61, 7);
    const std::string pct = writeTracePct(t, "shard_one.pct");
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.cacheBlocks = 256;
    cfg.windowAccesses = 128; // same window on both paths

    tracefmt::PctMmapSource src(pct);
    const ExperimentResult plain = runExperiment(src, cfg);

    runner::ShardReplayOptions opts;
    opts.shards = 1;
    const ExperimentResult sharded =
        runner::runShardedExperiment(pct, cfg, opts);
    expectIdentical(plain, sharded);
}

/** A shard's sub-trace, reporting the whole array's disk count. */
class SubTraceSource : public tracefmt::MemorySource
{
  public:
    SubTraceSource(const Trace &t, uint64_t disks_)
        : MemorySource(t), disks(disks_)
    {
    }

    uint64_t numDisksHint() const override { return disks; }

  private:
    uint64_t disks;
};

TEST(ShardedReplay, MatchesPerShardStreamsMergedByOwner)
{
    // Traffic on the even disks of a 9-disk array only: at 2 and at 8
    // shards some shards own no record, and still idle their
    // replicas to the trace's end.
    std::vector<TraceRecord> recs = workload(67, 5).data();
    for (TraceRecord &rec : recs)
        rec.disk *= 2;
    const Trace t(std::move(recs));
    ASSERT_EQ(t.numDisks(), 9u);
    const std::string pct = writeTracePct(t, "shard_merge.pct");

    struct Setup
    {
        const char *name;
        PolicyKind policy;
        WritePolicy write;
        std::size_t window;
    };
    const Setup setups[] = {
        {"LRU+WTDU", PolicyKind::LRU,
         WritePolicy::WriteThroughDeferredUpdate, 0},
        {"PA-LRU+WB", PolicyKind::PALRU, WritePolicy::WriteBack, 0},
        {"windowed OPG", PolicyKind::OPG, WritePolicy::WriteBack, 128},
    };
    for (const Setup &setup : setups) {
        for (const unsigned shards : {2u, 3u, 8u}) {
            SCOPED_TRACE(std::string(setup.name) + ", " +
                         std::to_string(shards) + " shards");
            ExperimentConfig cfg;
            cfg.policy = setup.policy;
            cfg.storage.writePolicy = setup.write;
            cfg.windowAccesses = setup.window;
            cfg.cacheBlocks = 203;

            std::vector<ExperimentResult> parts;
            bool some_shard_empty = false;
            for (unsigned s = 0; s < shards; ++s) {
                Trace sub;
                for (const TraceRecord &rec : t)
                    if (rec.disk % shards == s)
                        sub.append(rec);
                some_shard_empty |= sub.empty();
                ExperimentConfig part = cfg;
                part.cacheBlocks =
                    splitCapacity(cfg.cacheBlocks, shards, s);
                part.storage.endTimeFloor = t.endTime();
                SubTraceSource src(sub, t.numDisks());
                parts.push_back(runExperiment(src, part));
            }
            EXPECT_EQ(some_shard_empty, shards != 3);
            const ExperimentResult expected = mergeByOwner(
                parts, [shards](DiskId d) { return d % shards; });

            runner::ShardReplayOptions opts;
            opts.shards = shards;
            for (const unsigned jobs : {1u, 4u}) {
                SCOPED_TRACE("jobs " + std::to_string(jobs));
                opts.jobs = jobs;
                expectIdentical(expected,
                                runner::runShardedExperiment(pct, cfg,
                                                             opts));
            }
        }
    }
}

/** Overwrite @p bytes at offset @p at of the file at @p path. */
void
patchFile(const std::string &path, std::size_t at,
          const std::vector<unsigned char> &bytes)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << "cannot patch " << path;
}

/** Points $TMPDIR at @p dir for one scope. */
class ScopedTmpDir
{
  public:
    explicit ScopedTmpDir(const std::string &dir)
    {
        if (const char *old = std::getenv("TMPDIR"))
            saved = old;
        ::setenv("TMPDIR", dir.c_str(), 1);
    }

    ~ScopedTmpDir()
    {
        if (saved)
            ::setenv("TMPDIR", saved->c_str(), 1);
        else
            ::unsetenv("TMPDIR");
    }

    ScopedTmpDir(const ScopedTmpDir &) = delete;
    ScopedTmpDir &operator=(const ScopedTmpDir &) = delete;

  private:
    std::optional<std::string> saved;
};

TEST(ShardedReplay, CorruptInputFailsWithTheReadersError)
{
    namespace fs = std::filesystem;
    const fs::path dir = test::processScopedPath("shard_corrupt");
    fs::remove_all(dir);
    fs::create_directories(dir / "tmp");

    // 200 records over 8 disks; record 100 is the damaged one.
    constexpr std::size_t kBad = 100;
    std::vector<test::RawRecord> good;
    for (uint32_t i = 0; i < 200; ++i)
        good.push_back({0.5 * i, (i * 37u) % 500, i % 8, 1 + i % 3,
                        i % 4 == 0});
    const auto image = [&](const std::string &name,
                           const test::RawRecord &bad,
                           std::optional<uint32_t> disks = {}) {
        std::vector<test::RawRecord> recs = good;
        recs[kBad] = bad;
        return test::writeRawPct((dir / name).string(), recs, disks);
    };
    const std::size_t bad_at =
        tracefmt::kPctHeaderBytes + kBad * tracefmt::kPctRecordBytes;
    const test::RawRecord &orig = good[kBad];

    // A flipped block byte: every record decodes, only the sum fails.
    const std::string flipped = image("flipped.pct", orig);
    patchFile(flipped, bad_at + 8, {0x5a});
    const std::string paths[] = {
        flipped,
        image("disk_at_count.pct", {orig.time, 3, 8, 1, false}, 8u),
        image("out_of_order.pct", {orig.time - 1, 3, 4, 1, true}),
        image("unpackable.pct",
              {orig.time, uint64_t(1) << 48, 4, 1, false}),
    };

    const ScopedTmpDir tmp((dir / "tmp").string());
    for (const std::string &path : paths) {
        SCOPED_TRACE(path);
        const std::string expected = test::inputErrorOf([&] {
            tracefmt::PctMmapSource src(path);
            TraceRecord rec;
            while (src.next(rec)) {
            }
        });
        for (const PolicyKind policy : {PolicyKind::LRU, PolicyKind::OPG}) {
            ExperimentConfig cfg;
            cfg.policy = policy;
            cfg.windowAccesses = 64;
            cfg.cacheBlocks = 32;
            runner::ShardReplayOptions opts;
            opts.shards = 4;
            for (const unsigned jobs : {1u, 4u}) {
                SCOPED_TRACE("jobs " + std::to_string(jobs));
                opts.jobs = jobs;
                EXPECT_EQ(test::inputErrorOf([&] {
                              runner::runShardedExperiment(path, cfg,
                                                           opts);
                          }),
                          expected);
            }
        }
    }

    // A damaged record that claims 2^31 - 1 blocks would keep a shard
    // busy for minutes. At one job the validator fails before any
    // shard starts. At four, shard 0 reaches record 8 long before the
    // checksum of 200 000 records is known, and must wait for it.
    std::vector<test::RawRecord> many;
    for (uint32_t i = 0; i < 200000; ++i)
        many.push_back({0.001 * i, i % 5000, i % 8, 1, i % 3 == 0});
    const std::string huge =
        test::writeRawPct((dir / "huge_extent.pct").string(), many);
    patchFile(huge,
              tracefmt::kPctHeaderBytes + 8 * tracefmt::kPctRecordBytes +
                  20,
              {0xff, 0xff, 0xff, 0x7f});
    ExperimentConfig cfg;
    cfg.cacheBlocks = 32;
    runner::ShardReplayOptions opts;
    opts.shards = 4;
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        opts.jobs = jobs;
        EXPECT_NE(test::inputErrorOf([&] {
                      runner::runShardedExperiment(huge, cfg, opts);
                  }).find("checksum mismatch"),
                  std::string::npos);
    }

    EXPECT_TRUE(fs::is_empty(dir / "tmp"));
    fs::remove_all(dir);
}

TEST(WindowedOracle, LongRecordWaitsForTheChecksum)
{
    // Nothing verifies a file before the oracle's backward walk, so
    // the walk must settle the checksum itself before it expands a
    // record that claims 2^31 - 1 blocks (here record 8 of 200 000,
    // met last): expanding it would write a 32 GiB sidecar before the
    // replay could fail.
    namespace fs = std::filesystem;
    const fs::path dir = test::processScopedPath("oracle_long_record");
    fs::remove_all(dir);
    fs::create_directories(dir / "tmp");
    std::vector<test::RawRecord> many;
    for (uint32_t i = 0; i < 200000; ++i)
        many.push_back({0.001 * i, i % 5000, i % 8, 1, i % 3 == 0});
    const std::string huge =
        test::writeRawPct((dir / "huge_extent.pct").string(), many);
    patchFile(huge,
              tracefmt::kPctHeaderBytes + 8 * tracefmt::kPctRecordBytes +
                  20,
              {0xff, 0xff, 0xff, 0x7f});

    const ScopedTmpDir tmp((dir / "tmp").string());
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.windowAccesses = 4096;
    cfg.cacheBlocks = 32;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_NE(test::inputErrorOf([&] {
                  tracefmt::PctMmapSource src(huge);
                  runExperiment(src, cfg);
              }).find("checksum mismatch"),
              std::string::npos);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    EXPECT_TRUE(fs::is_empty(dir / "tmp"));
    fs::remove_all(dir);
}

} // namespace
} // namespace pacache
