/**
 * @file
 * Serve-mode WTDU crash coverage (DESIGN.md 5j): the per-stripe log
 * image after a clean shutdown — and after a power failure injected
 * at shutdown — must be bit-identical to the single-threaded replay's
 * at one stripe, and recovery over the frozen image must replay the
 * same write sequence either way.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/fault.hh"
#include "core/sim_stack.hh"
#include "qa/crash.hh"
#include "serve/server.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"

namespace pacache::serve
{
namespace
{

Trace
writeHeavyTrace(uint64_t seed = 11)
{
    SyntheticParams p;
    p.numRequests = 1500;
    p.numDisks = 4;
    p.writeRatio = 0.7;
    p.seed = seed;
    return generateSynthetic(p);
}

ExperimentConfig
wtduConfig()
{
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::LRU;
    cfg.dpm = DpmChoice::Practical;
    cfg.storage.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    cfg.cacheBlocks = 128;
    cfg.storage.wtduRegionBlocks = 32;
    return cfg;
}

/** A single-threaded replay stack wired to @p inj (may be null). */
std::unique_ptr<SimStack>
replayStack(const Trace &trace, ExperimentConfig cfg, FaultInjector *inj)
{
    cfg.storage.fault = inj;
    return std::make_unique<SimStack>(cfg, trace.numDisks(),
                                      cfg.cacheBlocks);
}

/** Run @p trace through a one-stripe serve server; @p inj may arm a
 *  Shutdown-site crash, in which case finish() throws. */
ServeServer
makeServer(const Trace &trace, const ExperimentConfig &cfg,
           FaultInjector *inj)
{
    ServeConfig sc;
    sc.exp = cfg;
    sc.exp.storage.fault = inj;
    sc.shards = 1;
    sc.threads = 1;
    sc.ringCapacity = 256;
    sc.batch = 16;
    sc.numDisks = std::max<std::size_t>(trace.numDisks(), 1);
    return ServeServer(sc);
}

void
expectSameLogImage(const WtduLog &a, const WtduLog &b)
{
    ASSERT_EQ(a.numDisks(), b.numDisks());
    ASSERT_EQ(a.regionBlocks(), b.regionBlocks());
    for (DiskId d = 0; d < a.numDisks(); ++d) {
        EXPECT_EQ(a.timestamp(d), b.timestamp(d)) << "disk " << d;
        EXPECT_EQ(a.used(d), b.used(d)) << "disk " << d;
        const auto &sa = a.entries(d);
        const auto &sb = b.entries(d);
        ASSERT_EQ(sa.size(), sb.size()) << "disk " << d;
        for (std::size_t i = 0; i < sa.size(); ++i)
            EXPECT_TRUE(sa[i] == sb[i])
                << "disk " << d << " slot " << i;
    }
}

std::vector<std::pair<DiskId, uint64_t>>
recoverySequence(WtduLog log)
{
    log.setFaultInjector(nullptr);
    std::vector<std::pair<DiskId, uint64_t>> seq;
    log.recoverAll([&](DiskId d, const WtduLog::Entry &e) {
        seq.emplace_back(d, e.version);
    });
    return seq;
}

TEST(ServeCrash, CleanShutdownLogMatchesReplay)
{
    const Trace trace = writeHeavyTrace();
    const ExperimentConfig cfg = wtduConfig();

    const auto rig = replayStack(trace, cfg, nullptr);
    rig->run(trace);
    ASSERT_NE(rig->system().wtduLog(), nullptr);

    ServeServer server = makeServer(trace, cfg, nullptr);
    server.start();
    server.submitTrace(trace);
    server.finish(trace.endTime());

    ASSERT_NE(server.shardWtduLog(0), nullptr);
    expectSameLogImage(*server.shardWtduLog(0), *rig->system().wtduLog());
}

TEST(ServeCrash, CrashAtShutdownFreezesLogIdenticallyToReplay)
{
    const Trace trace = writeHeavyTrace();
    const ExperimentConfig cfg = wtduConfig();

    CrashPlan plan;
    plan.armed = true;
    plan.site = CrashSite::Shutdown;
    plan.occurrence = 0;
    plan.surviveProb = 0.0;

    qa::CrashInjector replayInj(plan);
    const auto rig = replayStack(trace, cfg, &replayInj);
    EXPECT_THROW(rig->run(trace), CrashException);
    ASSERT_TRUE(replayInj.crashed());

    qa::CrashInjector serveInj(plan);
    ServeServer server = makeServer(trace, cfg, &serveInj);
    server.start();
    server.submitTrace(trace);
    EXPECT_THROW(server.finish(trace.endTime()), CrashException);
    ASSERT_TRUE(serveInj.crashed());

    // The power failure froze both log images at the same instant;
    // at one stripe they must be bit-identical, and recovery over
    // either must replay the same write sequence.
    const WtduLog *serveLog = server.shardWtduLog(0);
    const WtduLog *replayLog = rig->system().wtduLog();
    ASSERT_NE(serveLog, nullptr);
    ASSERT_NE(replayLog, nullptr);
    expectSameLogImage(*serveLog, *replayLog);
    EXPECT_EQ(recoverySequence(*serveLog), recoverySequence(*replayLog));
}

TEST(ServeCrash, CrashAtShutdownDiffersFromCleanShutdown)
{
    // The crash fires before the final drain, so writes still in the
    // current log generation (or in flight) distinguish the frozen
    // image from the fully drained clean-shutdown one whenever the
    // trace ends with logged writes. This guards against the
    // Shutdown site silently moving after the drain, where a "crash"
    // would be indistinguishable from a clean exit.
    const Trace trace = writeHeavyTrace(23);
    const ExperimentConfig cfg = wtduConfig();

    const auto clean = replayStack(trace, cfg, nullptr);
    clean->run(trace);

    CrashPlan plan;
    plan.armed = true;
    plan.site = CrashSite::Shutdown;
    plan.occurrence = 0;
    plan.surviveProb = 0.0;
    qa::CrashInjector inj(plan);
    const auto crashed = replayStack(trace, cfg, &inj);
    EXPECT_THROW(crashed->run(trace), CrashException);

    // Whatever the trace shape, the crashed image can only carry at
    // least as many un-retired entries as the drained one; both
    // recover cleanly.
    const WtduLog *a = crashed->system().wtduLog();
    const WtduLog *b = clean->system().wtduLog();
    std::size_t liveCrashed = 0, liveClean = 0;
    for (DiskId d = 0; d < a->numDisks(); ++d) {
        liveCrashed += a->recover(d).size();
        liveClean += b->recover(d).size();
    }
    EXPECT_GE(liveCrashed, liveClean);
}

} // namespace
} // namespace pacache::serve
