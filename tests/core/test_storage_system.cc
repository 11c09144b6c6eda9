#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/belady.hh"
#include "cache/future.hh"
#include "cache/lru.hh"
#include "core/storage_system.hh"
#include "disk/dpm.hh"
#include "tracefmt/trace_source.hh"

namespace pacache
{
namespace
{

/** Everything needed to run a StorageSystem by hand. */
struct Harness
{
    PowerModel pm;
    ServiceModel sm;
    EventQueue eq;
    AlwaysOnDpm alwaysOn;
    PracticalDpm practical;
    LruPolicy policy;
    Cache cache;
    DiskArray disks;
    std::unique_ptr<Disk> logDisk;

    Harness(std::size_t cache_blocks, std::size_t num_disks,
            bool use_practical, bool with_log)
        : pm(), sm(pm.spec()), practical(pm), policy(),
          cache(cache_blocks, policy),
          disks(num_disks, eq, pm, sm,
                use_practical ? static_cast<Dpm &>(practical)
                              : static_cast<Dpm &>(alwaysOn))
    {
        if (with_log) {
            logDisk = std::make_unique<Disk>(
                static_cast<DiskId>(num_disks), eq, pm, sm, alwaysOn);
        }
    }
};

/** Stream @p t through @p sys with the one replay loop. */
void
runTrace(StorageSystem &sys, const Trace &t)
{
    tracefmt::MemorySource src(t);
    sys.run(src);
}

Trace
rwTrace()
{
    Trace t;
    t.append({1.0, 0, 10, 1, false}); // read miss
    t.append({2.0, 0, 10, 1, true});  // write hit
    t.append({3.0, 0, 11, 1, true});  // write miss
    t.append({4.0, 0, 10, 1, false}); // read hit
    return t;
}

TEST(StorageSystem, WriteThroughWritesEveryWrite)
{
    Harness h(64, 1, false, false);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteThrough;
    const Trace t = rwTrace();
    StorageSystem sys(h.eq, h.cache, h.disks, cfg);
    runTrace(sys, t);
    // Disk sees: 1 read miss + 2 writes.
    EXPECT_EQ(sys.diskAccesses()[0], 3u);
    EXPECT_EQ(h.cache.stats().hits, 2u);
    EXPECT_EQ(h.cache.dirtyCount(0), 0u);
}

TEST(StorageSystem, WriteBackDefersUntilEviction)
{
    Harness h(64, 1, false, false);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteBack;
    const Trace t = rwTrace();
    StorageSystem sys(h.eq, h.cache, h.disks, cfg);
    runTrace(sys, t);
    // Disk sees only the read miss; both writes stay dirty in cache.
    EXPECT_EQ(sys.diskAccesses()[0], 1u);
    EXPECT_EQ(h.cache.dirtyCount(0), 2u);
}

TEST(StorageSystem, WriteBackFlushesDirtyVictim)
{
    Harness h(2, 1, false, false); // tiny cache forces evictions
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteBack;
    Trace t;
    t.append({1.0, 0, 1, 1, true});  // dirty block 1
    t.append({2.0, 0, 2, 1, true});  // dirty block 2
    t.append({3.0, 0, 3, 1, false}); // evicts 1 -> write-back + read
    StorageSystem sys(h.eq, h.cache, h.disks, cfg);
    runTrace(sys, t);
    EXPECT_EQ(sys.diskAccesses()[0], 2u); // victim write + read miss
}

TEST(StorageSystem, WriteBackRespondsAtCacheSpeed)
{
    Harness h(64, 1, false, false);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteBack;
    Trace t;
    t.append({1.0, 0, 1, 1, true});
    StorageSystem sys(h.eq, h.cache, h.disks, cfg);
    runTrace(sys, t);
    EXPECT_EQ(sys.responses().count(), 1u);
    EXPECT_NEAR(sys.responses().mean(), cfg.hitLatency, 1e-12);
}

TEST(StorageSystem, WbeuFlushesOnActivation)
{
    Harness h(64, 2, true, false); // practical DPM so disks sleep
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteBackEagerUpdate;
    Trace t;
    t.append({1.0, 0, 1, 1, true});    // dirty block on disk 0
    t.append({2.0, 0, 2, 1, true});    // another dirty block
    t.append({300.0, 0, 50, 1, false}); // read miss wakes disk 0
    StorageSystem sys(h.eq, h.cache, h.disks, cfg);
    runTrace(sys, t);
    // Activation flush: dirty blocks written once disk 0 wakes.
    EXPECT_EQ(h.cache.dirtyCount(0), 0u);
    // Disk saw the read plus the flush writes (coalesced 1..2 run).
    EXPECT_GE(sys.diskAccesses()[0], 2u);
}

TEST(StorageSystem, WbeuForcesFlushAtDirtyCap)
{
    Harness h(64, 1, true, false);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteBackEagerUpdate;
    cfg.wbeuMaxDirtyPerDisk = 3;
    Trace t;
    for (int i = 0; i < 3; ++i)
        t.append({1.0 + i, 0, static_cast<BlockNum>(10 * i), 1, true});
    StorageSystem sys(h.eq, h.cache, h.disks, cfg);
    runTrace(sys, t);
    EXPECT_EQ(h.cache.dirtyCount(0), 0u);
    EXPECT_GE(sys.diskAccesses()[0], 1u); // the forced flush
}

TEST(StorageSystem, WtduRequiresLogDisk)
{
    Harness h(64, 1, true, false);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    EXPECT_ANY_THROW(
        StorageSystem(h.eq, h.cache, h.disks, cfg, nullptr, nullptr));
}

TEST(StorageSystem, WtduLogsWritesToSleepingDisk)
{
    Harness h(64, 1, true, true);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    Trace t;
    t.append({1.0, 0, 1, 1, false});   // spin the disk's timeline up
    t.append({300.0, 0, 5, 1, true});  // disk asleep: goes to the log
    StorageSystem sys(h.eq, h.cache, h.disks, cfg, nullptr,
                      h.logDisk.get());
    runTrace(sys, t);
    EXPECT_EQ(sys.logWrites(), 1u);
    ASSERT_NE(sys.wtduLog(), nullptr);
    // The write never reached the data disk (no wake-up read came).
    EXPECT_EQ(sys.diskAccesses()[0], 1u);
    EXPECT_EQ(sys.wtduLog()->used(0), 1u);
    EXPECT_EQ(h.logDisk->energy().requests, 1u);
}

TEST(StorageSystem, WtduWritesDirectlyToActiveDisk)
{
    Harness h(64, 1, true, true);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    Trace t;
    t.append({1.0, 0, 1, 1, false});
    t.append({1.5, 0, 5, 1, true}); // disk still at full speed
    StorageSystem sys(h.eq, h.cache, h.disks, cfg, nullptr,
                      h.logDisk.get());
    runTrace(sys, t);
    EXPECT_EQ(sys.logWrites(), 0u);
    EXPECT_EQ(sys.diskAccesses()[0], 2u);
}

TEST(StorageSystem, WtduFlushesLogOnActivation)
{
    Harness h(64, 1, true, true);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    Trace t;
    t.append({1.0, 0, 1, 1, false});
    t.append({300.0, 0, 5, 1, true});   // logged
    t.append({301.0, 0, 6, 1, true});   // logged
    t.append({600.0, 0, 50, 1, false}); // read wakes the disk
    StorageSystem sys(h.eq, h.cache, h.disks, cfg, nullptr,
                      h.logDisk.get());
    runTrace(sys, t);
    EXPECT_EQ(sys.logWrites(), 2u);
    // After activation the region is retired and blocks are clean.
    EXPECT_EQ(sys.wtduLog()->used(0), 0u);
    EXPECT_EQ(sys.wtduLog()->timestamp(0), 1u);
    EXPECT_TRUE(h.cache.loggedBlocksOf(0).empty());
    // Data disk: first read + 2 flushed writes (coalesced 5,6) + read.
    EXPECT_GE(sys.diskAccesses()[0], 3u);
}

TEST(StorageSystem, WtduFullRegionForcesFlushAndRetire)
{
    Harness h(64, 1, true, true);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    cfg.wtduRegionBlocks = 2; // tiny region
    Trace t;
    t.append({1.0, 0, 1, 1, false});
    t.append({300.0, 0, 10, 1, true});  // log slot 1
    t.append({301.0, 0, 11, 1, true});  // log slot 2: full
    t.append({302.0, 0, 12, 1, true});  // forces flush + retire
    StorageSystem sys(h.eq, h.cache, h.disks, cfg, nullptr,
                      h.logDisk.get());
    runTrace(sys, t);
    // Two-phase retire: the overflowing write is deferred while the
    // flush is in flight and released as a direct write-through once
    // the retire completes, so it never reaches the log.
    EXPECT_EQ(sys.logWrites(), 2u);
    // The overflow retired generation 0 and nothing was appended to
    // the fresh region.
    EXPECT_GE(sys.wtduLog()->timestamp(0), 1u);
    EXPECT_EQ(sys.wtduLog()->used(0), 0u);
    // The flushed blocks and the deferred write reached the data disk.
    EXPECT_GE(sys.diskAccesses()[0], 3u);
}

TEST(StorageSystem, WtduDeferredWriteKeepsOriginalResponseOrigin)
{
    // The deferred write's response time is charged from its original
    // arrival, not from the retire completion that released it: the
    // client has been waiting the whole time.
    Harness h(64, 1, true, true);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    cfg.wtduRegionBlocks = 2;
    Trace t;
    t.append({1.0, 0, 1, 1, false});
    t.append({300.0, 0, 10, 1, true});
    t.append({301.0, 0, 11, 1, true});
    t.append({302.0, 0, 12, 1, true}); // deferred past the retire
    StorageSystem sys(h.eq, h.cache, h.disks, cfg, nullptr,
                      h.logDisk.get());
    runTrace(sys, t);
    // Spin-up takes seconds; the deferred write waits for the full
    // flush to become durable before it is even submitted, so its
    // response time dominates the maximum.
    const Time spin_up = h.pm.mode(h.pm.deepestMode()).spinUpTime;
    EXPECT_GE(sys.responses().max(), spin_up);
}

TEST(StorageSystem, WtduLoggedVictimIsPersistedHome)
{
    Harness h(2, 1, true, true); // 2-block cache forces evictions
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    Trace t;
    t.append({1.0, 0, 1, 1, false});
    // Disk asleep: two logged writes fill the cache.
    t.append({300.0, 0, 10, 1, true});
    t.append({301.0, 0, 11, 1, true});
    // A third logged write evicts a logged block: its only fresh copy
    // outside the log must be written home.
    t.append({302.0, 0, 12, 1, true});
    StorageSystem sys(h.eq, h.cache, h.disks, cfg, nullptr,
                      h.logDisk.get());
    runTrace(sys, t);
    EXPECT_GE(sys.loggedEvictions(), 1u);
    // Home writes happened beyond the initial read.
    EXPECT_GE(sys.diskAccesses()[0], 2u);
}

TEST(StorageSystem, ReadMissResponseIncludesSpinUp)
{
    Harness h(64, 1, true, false);
    StorageConfig cfg;
    Trace t;
    t.append({1.0, 0, 1, 1, false});
    t.append({500.0, 0, 2, 1, false}); // disk in standby by now
    StorageSystem sys(h.eq, h.cache, h.disks, cfg);
    runTrace(sys, t);
    EXPECT_GT(sys.responses().max(), 10.0); // spin-up dominated
}

TEST(StorageSystem, RunTwicePanics)
{
    Harness h(64, 1, false, false);
    StorageConfig cfg;
    const Trace t = rwTrace();
    StorageSystem sys(h.eq, h.cache, h.disks, cfg);
    runTrace(sys, t);
    EXPECT_ANY_THROW(runTrace(sys, t));
}

TEST(StorageSystem, TotalEnergyIncludesLogServiceOnly)
{
    Harness h(64, 1, true, true);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    Trace t;
    t.append({1.0, 0, 1, 1, false});
    t.append({300.0, 0, 5, 1, true});
    StorageSystem sys(h.eq, h.cache, h.disks, cfg, nullptr,
                      h.logDisk.get());
    runTrace(sys, t);
    const Energy disks_only = h.disks.totalEnergy().total();
    EXPECT_NEAR(sys.totalEnergy(),
                disks_only + h.logDisk->energy().serviceEnergy, 1e-9);
    // The log disk's (large) idle energy is NOT charged.
    EXPECT_LT(sys.totalEnergy(),
              disks_only + h.logDisk->energy().total());
}

TEST(StorageSystem, IncrementalStepFinishMatchesRun)
{
    const Trace t = rwTrace();
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteBack;

    Harness batch(64, 1, true, false);
    StorageSystem ref(batch.eq, batch.cache, batch.disks, cfg);
    runTrace(ref, t);

    // Driving the same accesses one step() at a time (the serve
    // stripe's mode) must land on identical statistics and energy.
    Harness inc(64, 1, true, false);
    StorageSystem sys(inc.eq, inc.cache, inc.disks, cfg);
    const std::vector<BlockAccess> accesses = expandTrace(t);
    for (std::size_t i = 0; i < accesses.size(); ++i)
        sys.step(accesses[i], i);
    sys.finish(t.endTime());

    EXPECT_EQ(inc.cache.stats().hits, batch.cache.stats().hits);
    EXPECT_EQ(inc.cache.stats().misses, batch.cache.stats().misses);
    EXPECT_EQ(inc.cache.stats().evictions,
              batch.cache.stats().evictions);
    EXPECT_EQ(sys.totalEnergy(), ref.totalEnergy());
    EXPECT_EQ(sys.responses().count(), ref.responses().count());
    EXPECT_EQ(sys.responses().sum(), ref.responses().sum());
}

TEST(StorageSystem, RunRejectsUnpreparedOfflinePolicy)
{
    Harness h(64, 1, false, false);
    StorageConfig cfg;
    BeladyPolicy offline;
    Cache cache(8, offline);
    StorageSystem sys(h.eq, cache, h.disks, cfg);
    EXPECT_ANY_THROW(runTrace(sys, rwTrace()));
}

} // namespace
} // namespace pacache
