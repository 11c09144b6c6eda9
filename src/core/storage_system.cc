#include "core/storage_system.hh"

#include <algorithm>

#include "core/fault.hh"
#include "obs/observer.hh"
#include "obs/profiler.hh"
#include "tracefmt/trace_source.hh"
#include "util/logging.hh"

namespace pacache
{

StorageSystem::StorageSystem(EventQueue &eq, Cache &cache_,
                             DiskArray &disks_,
                             const StorageConfig &config,
                             PaClassifier *classifier, Disk *log_disk,
                             obs::SimObserver *observer_,
                             obs::Profiler *profiler_)
    : queue(eq), cache(cache_), disks(disks_), cfg(config),
      cls(classifier), logDisk(log_disk), observer(observer_),
      profiler(profiler_), perDiskAccesses(disks_.numDisks(), 0)
{
    if (cfg.writePolicy == WritePolicy::WriteThroughDeferredUpdate) {
        PACACHE_ASSERT(logDisk != nullptr, "WTDU needs a log device");
        log = std::make_unique<WtduLog>(disks.numDisks(),
                                        cfg.wtduRegionBlocks);
        log->setFaultInjector(cfg.fault);
        retireState.resize(disks.numDisks());
    }
    PACACHE_ASSERT(cfg.prefetchBlocks == 0 ||
                       cache.policy().supportsPrefetch(),
                   "prefetch is incompatible with off-line policies");

    const bool wants_activation_hook =
        cfg.writePolicy == WritePolicy::WriteBackEagerUpdate ||
        cfg.writePolicy == WritePolicy::WriteThroughDeferredUpdate;
    if (wants_activation_hook) {
        for (DiskId d = 0; d < disks.numDisks(); ++d) {
            disks.disk(d).setOnActivated([this, d](Time now) {
                onDiskActivated(d, now);
            });
        }
    }
}

void
StorageSystem::run(tracefmt::TraceSource &source)
{
    PACACHE_ASSERT(!finished, "StorageSystem::run after finish");
    // Progress counts records: the one unit every source can hint.
    if (observer) {
        const uint64_t hint = source.sizeHint();
        observer->runBegin(
            hint == tracefmt::TraceSource::kUnknown ? 0 : hint,
            std::max<Time>(source.endTimeHint(), 0.0));
    }

    TraceRecord rec;
    std::size_t idx = 0;
    std::size_t records = 0;
    Time end_time = 0;
    {
        obs::ProfileScope scope(profiler, "replay");
        while (source.next(rec)) {
            for (uint32_t b = 0; b < rec.numBlocks; ++b) {
                const BlockAccess acc{rec.time,
                                      BlockId{rec.disk, rec.block + b},
                                      rec.write, records};
                step(acc, idx++);
                if (observer)
                    observer->requestProcessed(acc.time, records);
            }
            end_time = rec.time;
            ++records;
        }
    }
    PACACHE_ASSERT(records > 0 || cfg.endTimeFloor > 0,
                   "cannot run an empty trace");

    finish(end_time);
}

void
StorageSystem::step(const BlockAccess &acc, std::size_t idx)
{
    queue.runUntil(acc.time);
    if (cls)
        cls->onRequest(acc.block.disk, acc.block, acc.time);
    if (acc.write)
        handleWrite(acc, idx);
    else
        handleRead(acc, idx);
}

void
StorageSystem::finish(Time trace_end)
{
    PACACHE_ASSERT(!finished, "StorageSystem::finish called twice");
    // Drain in-flight services, spin-ups, and demotion chains, then
    // close every disk's accounting at a horizon that depends only on
    // the trace and the power model — NOT on run dynamics — so that
    // energies are comparable across policies and DPM choices.
    obs::ProfileScope scope(profiler, "drain_finalize");
    if (cfg.fault)
        cfg.fault->crashPoint(CrashSite::Shutdown, 0);
    queue.runAll();
    const Time end = std::max(trace_end, cfg.endTimeFloor);
    const PowerModel &pm = disks.powerModel();
    const Time tail =
        (pm.thresholds().empty() ? 0.0 : pm.thresholds().back()) +
        pm.mode(pm.deepestMode()).transitionTime() + 10.0;
    const Time horizon = std::max(end + tail, queue.now());
    disks.finalize(horizon);
    if (logDisk)
        logDisk->finalize(horizon);
    finished = true;
    if (observer)
        observer->runEnd(horizon);
}

void
StorageSystem::handleRead(const BlockAccess &acc, std::size_t idx)
{
    const Time now = acc.time;
    const CacheResult result = cache.access(acc.block, now, idx);
    if (result.hit) {
        respStats.record(cfg.hitLatency);
        return;
    }

    // Sequential prefetch: extend the fetch over the following
    // non-resident blocks — the platters are paying for this seek and
    // rotation anyway.
    uint32_t run = 1;
    if (cfg.prefetchBlocks > 0) {
        while (run <= cfg.prefetchBlocks &&
               !cache.contains(
                   BlockId{acc.block.disk, acc.block.block + run})) {
            ++run;
        }
    }

    submitDisk(acc.block.disk, acc.block.block, run, false, true, now,
               result.coldMiss ? WakeCause::DemandColdMiss
                               : WakeCause::CapacityMiss);
    handleVictim(result, now);
    for (uint32_t b = 1; b < run; ++b) {
        const CacheResult pf = cache.insert(
            BlockId{acc.block.disk, acc.block.block + b}, now, idx);
        if (!pf.hit)
            ++prefetchCount;
        handleVictim(pf, now);
    }
}

void
StorageSystem::handleWrite(const BlockAccess &acc, std::size_t idx)
{
    const Time now = acc.time;
    const DiskId d = acc.block.disk;
    const CacheResult result = cache.access(acc.block, now, idx);

    switch (cfg.writePolicy) {
      case WritePolicy::WriteThrough:
        handleVictim(result, now);
        submitDisk(d, acc.block.block, 1, true, true, now,
                   WakeCause::DemandWrite);
        break;

      case WritePolicy::WriteBack:
        cache.markDirty(acc.block);
        handleVictim(result, now);
        respStats.record(cfg.hitLatency);
        break;

      case WritePolicy::WriteBackEagerUpdate: {
        cache.markDirty(acc.block);
        handleVictim(result, now);
        respStats.record(cfg.hitLatency);
        if (cache.dirtyCount(d) >= cfg.wbeuMaxDirtyPerDisk) {
            // Dirty backlog cap reached: force the disk awake and
            // flush everything (the submits trigger the spin-up).
            if (cfg.fault)
                cfg.fault->crashPoint(CrashSite::EagerUpdate, d);
            std::vector<BlockId> dirty = cache.dirtyBlocksOf(d);
            if (observer)
                observer->wbeuForcedWake(d, dirty.size(), now);
            for (const BlockId &b : dirty)
                cache.markClean(b);
            flushBlocks(d, std::move(dirty), now,
                        WakeCause::WbeuForcedWake);
        }
        break;
      }

      case WritePolicy::WriteThroughDeferredUpdate: {
        handleVictim(result, now);
        RetireState &rs = retireState[d];
        if (!rs.pending && disks.disk(d).atFullSpeed()) {
            // The destination is awake: plain write-through.
            cache.clearLogged(acc.block);
            const uint64_t version = nextVersion++;
            if (cfg.fault)
                cfg.fault->noteClientWrite(d, acc.block.block, version);
            submitDisk(d, acc.block.block, 1, true, true, now,
                       WakeCause::DemandWrite);
            break;
        }
        if (!rs.pending && log->full(d))
            flushLogged(d, now); // wakes the disk; schedules a retire
        if (rs.pending) {
            // A retire is in flight: the region is still full (its
            // entries stay live until the flush is durable), and a
            // direct write now could be overwritten by a stale entry
            // if recovery ran after a crash. The write waits; it is
            // acknowledged when it completes as a write-through after
            // the retire (completeRetire submits it).
            rs.deferred.push_back(DeferredWrite{acc.block.block, now});
            break;
        }
        const BlockNum log_block =
            static_cast<BlockNum>(d) * log->regionBlocks() +
            log->used(d);
        if (cfg.fault)
            cfg.fault->crashPoint(CrashSite::LogAppend, d);
        const uint64_t version = nextVersion++;
        if (cfg.fault)
            cfg.fault->noteClientWrite(d, acc.block.block, version);
        const bool ok = log->append(d, acc.block.block, version);
        PACACHE_ASSERT(ok, "WTDU log region still full after flush");
        // The log device is synchronous: the append returning is the
        // acknowledgement of this write.
        if (cfg.fault)
            cfg.fault->noteLogAppend(d, acc.block.block, version);
        cache.markLogged(acc.block);
        ++logWriteCount;
        if (observer)
            observer->wtduLogWrite();

        DiskRequest req;
        req.arrival = now;
        req.block = log_block;
        req.numBlocks = 1;
        req.write = true;
        req.cause = WakeCause::DemandWrite; // log device never parks
        req.onComplete = [this, now](Time done, const DiskRequest &) {
            respStats.record(done - now);
        };
        logDisk->submit(std::move(req));
        break;
      }
    }
}

void
StorageSystem::handleVictim(const CacheResult &result, Time now)
{
    if (!result.evicted)
        return;
    if (result.victimDirty) {
        // Write-back family: the eviction forces the write-back.
        submitDisk(result.victim.disk, result.victim.block, 1, true,
                   false, now, WakeCause::EvictionWriteback);
    }
    if (result.victimLogged) {
        // WTDU corner case: the cache copy is the only fresh copy
        // outside the log; persist it home before dropping it.
        ++loggedEvictionCount;
        submitDisk(result.victim.disk, result.victim.block, 1, true,
                   false, now, WakeCause::EvictionWriteback);
    }
}

void
StorageSystem::submitDisk(DiskId disk, BlockNum block, uint32_t count,
                          bool write, bool record_response, Time arrival,
                          WakeCause cause, Time ack_from)
{
    PACACHE_ASSERT(disk < disks.numDisks(), "disk id out of range");
    uint64_t fault_id = 0;
    if (cfg.fault && write) {
        cfg.fault->crashPoint(CrashSite::DataWrite, disk);
        fault_id = cfg.fault->noteDataWriteSubmitted(
            disk, block, count, record_response);
    }
    ++perDiskAccesses[disk];
    if (cls)
        cls->onDiskAccess(disk, arrival);

    // WTDU retires a region only once every write to its disk is
    // durable, so every data-disk write is tracked while a log exists.
    const bool track = log != nullptr && write;
    if (track)
        ++retireState[disk].outstanding;

    DiskRequest req;
    req.arrival = arrival;
    req.block = block;
    req.numBlocks = count;
    req.write = write;
    req.cause = cause;
    if (record_response || fault_id != 0 || track) {
        const Time resp_from = ack_from >= 0 ? ack_from : arrival;
        FaultInjector *fi = cfg.fault;
        req.onComplete = [this, resp_from, record_response, fi,
                          fault_id, track,
                          disk](Time done, const DiskRequest &) {
            if (record_response)
                respStats.record(done - resp_from);
            if (fault_id != 0)
                fi->noteDataWriteDurable(fault_id);
            if (track)
                writeDurable(disk, done);
        };
    }
    disks.submit(disk, std::move(req));
}

void
StorageSystem::flushBlocks(DiskId disk, std::vector<BlockId> blocks,
                           Time now, WakeCause cause)
{
    if (blocks.empty())
        return;
    std::sort(blocks.begin(), blocks.end());
    std::size_t i = 0;
    while (i < blocks.size()) {
        std::size_t j = i + 1;
        while (j < blocks.size() &&
               blocks[j].block == blocks[j - 1].block + 1 &&
               j - i < cfg.maxFlushRun) {
            ++j;
        }
        submitDisk(disk, blocks[i].block,
                   static_cast<uint32_t>(j - i), true, false, now,
                   cause);
        i = j;
    }
}

void
StorageSystem::onDiskActivated(DiskId disk, Time now)
{
    if (cfg.fault)
        cfg.fault->crashPoint(CrashSite::SpinUp, disk);
    switch (cfg.writePolicy) {
      case WritePolicy::WriteBackEagerUpdate: {
        // The disk is already at full speed here; these writebacks
        // ride along without waking anything.
        if (cfg.fault)
            cfg.fault->crashPoint(CrashSite::EagerUpdate, disk);
        std::vector<BlockId> dirty = cache.dirtyBlocksOf(disk);
        for (const BlockId &b : dirty)
            cache.markClean(b);
        flushBlocks(disk, std::move(dirty), now,
                    WakeCause::EvictionWriteback);
        break;
      }
      case WritePolicy::WriteThroughDeferredUpdate:
        flushLogged(disk, now);
        break;
      default:
        break;
    }
}

void
StorageSystem::flushLogged(DiskId disk, Time now)
{
    if (log->used(disk) == 0)
        return;
    RetireState &rs = retireState[disk];
    if (rs.pending)
        return; // a flush is already on its way to a retire
    std::vector<BlockId> logged = cache.loggedBlocksOf(disk);
    for (const BlockId &b : logged)
        cache.clearLogged(b);
    rs.pending = true;
    flushBlocks(disk, std::move(logged), now,
                WakeCause::WtduLogRecycle);
    // Two-phase retire: the region's entries must stay live until the
    // flush — and every earlier write to this disk (e.g. the eviction
    // write-back of a logged block) — is durable. Retiring at submit
    // time would lose acknowledged writes if power failed with the
    // flush still in flight. With nothing outstanding (all logged
    // blocks already persisted home by evictions) retire right away.
    if (rs.outstanding == 0)
        completeRetire(disk, now);
}

void
StorageSystem::writeDurable(DiskId disk, Time now)
{
    RetireState &rs = retireState[disk];
    PACACHE_ASSERT(rs.outstanding > 0,
                   "write completion without a tracked submission");
    if (--rs.outstanding == 0 && rs.pending) {
        // The retire runs as its own zero-delay event rather than
        // inside the disk's completion callback: a crash injected at
        // the retire sites must not strand the disk mid-completion
        // (and the header write really does happen after the
        // completion interrupt, not during it).
        queue.schedule(now, [this, disk](Time t) {
            completeRetire(disk, t);
        });
    }
}

void
StorageSystem::completeRetire(DiskId disk, Time now)
{
    RetireState &rs = retireState[disk];
    rs.pending = false;
    if (cfg.fault)
        cfg.fault->crashPoint(CrashSite::RetirePre, disk);
    log->retire(disk);
    if (cfg.fault) {
        cfg.fault->crashPoint(CrashSite::RetirePost, disk);
        cfg.fault->noteLogRetire(disk, log->timestamp(disk));
    }
    if (observer)
        observer->wtduRegionRecycle(disk, now);

    // Release the writes that arrived during the retire window. The
    // disk is at full speed (a write to it just completed, or it never
    // had to sleep), so they go through as plain write-throughs; each
    // is acknowledged at completion, timed from its original arrival.
    std::vector<DeferredWrite> waiting = std::move(rs.deferred);
    rs.deferred.clear();
    for (const DeferredWrite &w : waiting) {
        cache.clearLogged(BlockId{disk, w.block});
        const uint64_t version = nextVersion++;
        if (cfg.fault)
            cfg.fault->noteClientWrite(disk, w.block, version);
        submitDisk(disk, w.block, 1, true, true, now,
                   WakeCause::DemandWrite, w.arrival);
    }
}

Energy
StorageSystem::totalEnergy() const
{
    Energy total = disks.totalEnergy().total();
    // The log device is a pre-existing always-active resource (e.g.
    // a database log disk or NVRAM); only the traffic WTDU adds to it
    // is charged to the policy.
    if (logDisk)
        total += logDisk->energy().serviceEnergy;
    return total;
}

} // namespace pacache
