#include "qa/crash.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/sim_stack.hh"
#include "core/wtdu_log.hh"
#include "obs/energy_ledger.hh"
#include "qa/gen.hh"
#include "serve/server.hh"
#include "util/random.hh"

namespace pacache::qa
{

void
CrashInjector::crashPoint(CrashSite site, DiskId disk)
{
    const uint64_t hit = hits[static_cast<std::size_t>(site)]++;
    if (didCrash || !plan.armed || site != plan.site ||
        hit != plan.occurrence) {
        return;
    }
    // Power fails now: decide which in-flight data-disk writes made
    // it to the platters, then freeze the model (post-crash event
    // draining — the ledger property's — must not change it).
    settleCrash();
    didCrash = true;
    throw CrashException(site, disk);
}

void
CrashInjector::noteClientWrite(DiskId disk, BlockNum block,
                               uint64_t version)
{
    const uint64_t key = BlockId{disk, block}.packed();
    latest[key] = version;
    issued[key].insert(version);
}

void
CrashInjector::noteLogAppend(DiskId disk, BlockNum block,
                             uint64_t version)
{
    const uint64_t key = BlockId{disk, block}.packed();
    auto &a = acked[key];
    a = std::max(a, version);
}

uint64_t
CrashInjector::noteDataWriteSubmitted(DiskId disk, BlockNum first,
                                      uint32_t count, bool acks)
{
    if (didCrash)
        return 0; // post-crash drain traffic: not part of the model
    InFlight w;
    w.acks = acks;
    for (uint32_t i = 0; i < count; ++i) {
        const uint64_t key = BlockId{disk, first + i}.packed();
        const auto it = latest.find(key);
        if (it != latest.end())
            w.snapshot.emplace_back(key, it->second);
    }
    const uint64_t id = nextId++;
    inflight.emplace(id, std::move(w));
    return id;
}

void
CrashInjector::noteDataWriteDurable(uint64_t id)
{
    const auto it = inflight.find(id);
    if (it == inflight.end())
        return; // settled by a crash, or post-crash traffic
    applyDurable(it->second);
    if (it->second.acks) {
        for (const auto &[key, version] : it->second.snapshot) {
            auto &a = acked[key];
            a = std::max(a, version);
        }
    }
    inflight.erase(it);
}

void
CrashInjector::applyDurable(const InFlight &w)
{
    for (const auto &[key, version] : w.snapshot) {
        auto &d = durable[key];
        d = std::max(d, version);
    }
}

void
CrashInjector::settleCrash()
{
    // Reordered-flush model: each write in flight at the power
    // failure independently survives with the plan's probability,
    // drawn in submission order from the plan's own seed so the
    // outcome is case-deterministic.
    Rng rng(plan.reorderSeed);
    for (const auto &[id, w] : inflight) {
        if (rng.chance(plan.surviveProb))
            applyDurable(w);
    }
    inflight.clear();
}

namespace
{

template <typename... Args>
PropertyResult
failMsg(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return PropertyResult::fail(os.str());
}

/** The durability properties exercise the WTDU write path only. */
FuzzCase
wtduCase(const FuzzCase &c)
{
    FuzzCase cc = c;
    cc.cfg.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    return cc;
}

/**
 * A case's whole simulation stack with @p inj wired in. The stack
 * outlives a CrashException unwinding the run, so the post-crash
 * state (the WtduLog, the disks' energy accounting) stays
 * inspectable.
 */
class CrashRig
{
  public:
    CrashRig(const FuzzCase &c, FaultInjector *inj)
        : trace(c.trace), cfg(c.experimentConfig(inj)),
          stack(cfg, diskCount(), cfg.cacheBlocks,
                buildFuture(trace, cfg))
    {
    }

    /** Run the workload. @return true if the plan fired. */
    bool
    run()
    {
        try {
            stack.run(trace);
            return false;
        } catch (const CrashException &) {
            return true;
        }
    }

    /**
     * Post-crash completion of the simulation's accounting: resume
     * the drain and finalize every disk at the run's usual horizon.
     * Only needed after a crash (a clean run() finalizes itself).
     */
    void finishAfterCrash() { stack.system().finish(trace.endTime()); }

    ExperimentResult collect() const { return stack.collect(); }
    WtduLog *log() { return stack.system().wtduLog(); }
    std::size_t
    diskCount() const
    {
        return std::max<std::size_t>(trace.numDisks(), 1);
    }

  private:
    const Trace &trace;
    ExperimentConfig cfg;
    SimStack stack;
};

std::string
describeBlock(uint64_t key)
{
    const BlockId b = BlockId::fromPacked(key);
    std::ostringstream os;
    os << '(' << b.disk << ',' << b.block << ')';
    return os.str();
}

/**
 * The differential durability check: apply WTDU recovery over the
 * surviving log image on top of the injector's durable platter model
 * and demand exactly-the-acknowledged-writes. Empty string = pass.
 */
std::string
checkDurability(CrashInjector &inj, WtduLog &log)
{
    std::map<uint64_t, uint64_t> recovered = inj.durableState();
    std::string replayError;
    log.recoverAll([&](DiskId d, const WtduLog::Entry &e) {
        const uint64_t key = BlockId{d, e.block}.packed();
        if (replayError.empty() && !inj.wasIssued(key, e.version)) {
            std::ostringstream os;
            os << "recovery replays block " << describeBlock(key)
               << " at version " << e.version
               << ", which was never issued for it";
            replayError = os.str();
        }
        // Replay order is append order; later entries overwrite, so
        // an ordering regression shows up as a version mismatch.
        recovered[key] = e.version;
    });
    if (!replayError.empty())
        return replayError;

    for (const auto &[key, ackVer] : inj.ackedWrites()) {
        const auto it = recovered.find(key);
        std::ostringstream os;
        if (it == recovered.end()) {
            os << "acknowledged write lost: block "
               << describeBlock(key) << " acked at version " << ackVer
               << " but nothing recovered";
            return os.str();
        }
        if (it->second == ackVer)
            continue;
        if (it->second < ackVer) {
            os << "acknowledged write lost: block "
               << describeBlock(key) << " acked at version " << ackVer
               << " but recovered at stale version " << it->second;
            return os.str();
        }
        if (!inj.wasIssued(key, it->second)) {
            os << "resurrected write: block " << describeBlock(key)
               << " recovered at version " << it->second
               << ", which was never issued";
            return os.str();
        }
    }
    for (const auto &[key, ver] : recovered) {
        if (!inj.wasIssued(key, ver)) {
            std::ostringstream os;
            os << "resurrected write: block " << describeBlock(key)
               << " durable at version " << ver
               << ", which was never issued";
            return os.str();
        }
    }
    return {};
}

} // namespace

PropertyResult
propWtduCrashDurability(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    const FuzzCase cc = wtduCase(c);
    CrashInjector inj(cc.cfg.crash);
    CrashRig rig(cc, &inj);
    rig.run(); // a plan that never fires checks the clean shutdown

    const std::string err = checkDurability(inj, *rig.log());
    if (!err.empty())
        return failMsg(crashSiteName(cc.cfg.crash.site),
                       "@", cc.cfg.crash.occurrence,
                       (inj.crashed() ? "" : " (never fired)"), ": ",
                       err);

    // Recovery retired every region: a second pass must be a no-op.
    WtduLog &log = *rig.log();
    for (DiskId d = 0; d < rig.diskCount(); ++d) {
        if (!log.recover(d).empty())
            return failMsg("disk ", d, " still has live log entries "
                           "after recovery retired its region");
    }
    return PropertyResult::ok();
}

PropertyResult
propWtduCrashLedger(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    const FuzzCase cc = wtduCase(c);
    CrashInjector inj(cc.cfg.crash);
    CrashRig rig(cc, &inj);
    const bool crashed = rig.run();
    if (crashed)
        rig.finishAfterCrash();

    const std::vector<EnergyStats> perDisk = rig.collect().perDisk;
    for (DiskId d = 0; d < rig.diskCount(); ++d) {
        const EnergyStats &es = perDisk[d];
        const double err = obs::ledgerRelError(es);
        if (err > obs::kLedgerConservationTol)
            return failMsg("disk ", d, ": ledger rel error ", err,
                           " after ",
                           crashed ? "crash recovery" : "clean run",
                           " (site ", crashSiteName(cc.cfg.crash.site),
                           "@", cc.cfg.crash.occurrence, ")");
    }
    const double aggErr = obs::ledgerMaxRelError(perDisk);
    if (aggErr > obs::kLedgerConservationTol)
        return failMsg("aggregate ledger rel error ", aggErr,
                       " after ", crashed ? "crash" : "clean run");
    return PropertyResult::ok();
}

PropertyResult
propWtduRecoveryIdempotentUnderCrash(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    const FuzzCase cc = wtduCase(c);
    CrashInjector inj(cc.cfg.crash);
    CrashRig rig(cc, &inj);
    rig.run();

    // Two copies of the surviving log image: one recovered in a
    // single pass, one crashed mid-recovery and recovered again.
    WtduLog once = *rig.log();
    once.setFaultInjector(nullptr);
    WtduLog twice = once;

    std::size_t liveEntries = 0;
    for (DiskId d = 0; d < rig.diskCount(); ++d)
        liveEntries += once.recover(d).size();

    std::map<uint64_t, uint64_t> ref;
    once.recoverAll([&](DiskId d, const WtduLog::Entry &e) {
        ref[BlockId{d, e.block}.packed()] = e.version;
    });

    // One crashPoint(Recovery) precedes every replayed entry and
    // every retire, so this occurrence always lands mid-recovery.
    CrashPlan rp;
    rp.armed = true;
    rp.site = CrashSite::Recovery;
    rp.occurrence = deriveSeed(c.seed, 0xc4a5) %
                    (liveEntries + rig.diskCount());
    CrashInjector rinj(rp);

    std::map<uint64_t, uint64_t> interrupted;
    const auto apply = [&](DiskId d, const WtduLog::Entry &e) {
        interrupted[BlockId{d, e.block}.packed()] = e.version;
    };
    bool recoveryCrashed = false;
    try {
        twice.recoverAll(apply, &rinj);
    } catch (const CrashException &) {
        recoveryCrashed = true;
    }
    if (!recoveryCrashed)
        return failMsg("recovery crash plan at occurrence ",
                       rp.occurrence, " never fired over ",
                       liveEntries, " live entries");
    twice.recoverAll(apply);

    if (interrupted != ref)
        return failMsg("crash-and-rerun recovery applied ",
                       interrupted.size(),
                       " final block versions, single-pass applied ",
                       ref.size(), " (or versions differ)");
    for (DiskId d = 0; d < rig.diskCount(); ++d) {
        if (!twice.recover(d).empty() || !once.recover(d).empty())
            return failMsg("disk ", d,
                           " still has live entries after recovery");
    }
    return PropertyResult::ok();
}

PropertyResult
propServeCrashShutdownRecovery(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    FuzzCase cc = wtduCase(c);
    if (policyNeedsFuture(cc.cfg.policy))
        cc.cfg.policy = PolicyKind::LRU; // serve is on-line only
    // The only crash site reached from the serve shutdown path (the
    // workers are joined first, so mid-workload sites would throw on
    // a worker thread).
    cc.cfg.crash.armed = true;
    cc.cfg.crash.site = CrashSite::Shutdown;
    cc.cfg.crash.occurrence = 0;

    CrashInjector replayInj(cc.cfg.crash);
    CrashRig rig(cc, &replayInj);
    if (!rig.run())
        return failMsg("shutdown crash never fired in replay mode");

    CrashInjector serveInj(cc.cfg.crash);
    serve::ServeConfig sc;
    sc.exp = cc.experimentConfig(&serveInj);
    sc.shards = 1;
    sc.threads = 1;
    sc.ringCapacity = 256;
    sc.batch = 16;
    sc.numDisks = rig.diskCount();

    serve::ServeServer server(sc);
    server.start();
    server.submitTrace(c.trace);
    bool serveCrashed = false;
    try {
        server.finish(c.trace.endTime());
    } catch (const CrashException &) {
        serveCrashed = true;
    }
    if (!serveCrashed)
        return failMsg("shutdown crash never fired in serve mode");

    // The stripe's surviving log image must be bit-identical to the
    // replay-mode one: same stamps, same free pointers, same
    // physical slots (checksums included).
    WtduLog &replayLog = *rig.log();
    const WtduLog *serveLog = server.shardWtduLog(0);
    if (!serveLog)
        return failMsg("serve stripe has no WTDU log");
    if (serveLog->numDisks() != replayLog.numDisks())
        return failMsg("serve log covers ", serveLog->numDisks(),
                       " disks, replay log ", replayLog.numDisks());
    for (DiskId d = 0; d < replayLog.numDisks(); ++d) {
        if (serveLog->timestamp(d) != replayLog.timestamp(d))
            return failMsg("disk ", d, ": serve region stamp ",
                           serveLog->timestamp(d), " != replay stamp ",
                           replayLog.timestamp(d));
        if (serveLog->used(d) != replayLog.used(d))
            return failMsg("disk ", d, ": serve region uses ",
                           serveLog->used(d), " slots, replay ",
                           replayLog.used(d));
        const auto &sslots = serveLog->entries(d);
        const auto &rslots = replayLog.entries(d);
        if (sslots.size() != rslots.size())
            return failMsg("disk ", d, ": serve region holds ",
                           sslots.size(), " physical slots, replay ",
                           rslots.size());
        for (std::size_t i = 0; i < sslots.size(); ++i) {
            if (sslots[i] != rslots[i])
                return failMsg("disk ", d, " slot ", i,
                               ": serve entry (block ",
                               sslots[i].block, " v",
                               sslots[i].version, " stamp ",
                               sslots[i].stamp,
                               ") != replay entry (block ",
                               rslots[i].block, " v",
                               rslots[i].version, " stamp ",
                               rslots[i].stamp, ")");
        }
    }

    // And recovery over the two images must replay the exact same
    // write sequence.
    using Write = std::tuple<DiskId, BlockNum, uint64_t>;
    std::vector<Write> replayWrites, serveWrites;
    replayLog.recoverAll([&](DiskId d, const WtduLog::Entry &e) {
        replayWrites.emplace_back(d, e.block, e.version);
    });
    WtduLog serveCopy = *serveLog;
    serveCopy.setFaultInjector(nullptr);
    serveCopy.recoverAll([&](DiskId d, const WtduLog::Entry &e) {
        serveWrites.emplace_back(d, e.block, e.version);
    });
    if (replayWrites != serveWrites)
        return failMsg("recovery replays ", serveWrites.size(),
                       " writes from the serve log but ",
                       replayWrites.size(),
                       " from the replay log (or they differ)");
    return PropertyResult::ok();
}

} // namespace pacache::qa
