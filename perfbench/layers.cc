/**
 * @file
 * The traced run: each layer is timed from outside, by replaying the
 * workload's own record stream into that layer's public functions in
 * isolation, plus sampled StorageSystem::step() timing on an
 * incremental stack. Every layer is replayed on every workload's
 * input, so each per-layer metric exists on each workload; which
 * end-to-end metric a layer should move, on which workload, is mapped
 * in BENCHMARK.json and perfbench/README.md.
 *
 * Layer costs are reported in two terms: a fixed setup cost (building
 * the layer) and a per-access cost. Per-call costs come from timing
 * every Nth call, minus the measured cost of reading the clock.
 */

#include <algorithm>
#include <cstdio>

#include "bench.hh"
#include "cache/future_window.hh"
#include "core/opg.hh"
#include "disk/dpm.hh"
#include "obs/energy_ledger.hh"
#include "obs/profiler.hh"
#include "tracefmt/pct.hh"

namespace perfbench
{

using namespace pacache;

namespace
{

/** Calls timed individually: one in kSampleEvery. */
constexpr std::size_t kSampleEvery = 8;
/** step() calls timed individually: one in kStepSampleEvery. */
constexpr std::size_t kStepSampleEvery = 64;

/** Median cost of one back-to-back pair of clock reads (ns). */
double
clockOverheadNs()
{
    std::vector<double> d;
    d.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
        const uint64_t a = nowNs();
        const uint64_t b = nowNs();
        d.push_back(static_cast<double>(b - a));
    }
    return median(std::move(d));
}

double
msSince(uint64_t t0)
{
    return secondsBetween(t0, nowNs()) * 1e3;
}

/** One layer's two-term cost: setup plus per-access cost times n. */
void
printTwoTerm(const char *layer, double setup_ms, double per_ns, double n)
{
    std::printf("  %-12s %9.4g ms setup + %8.4g ns x %-9.0f = %9.4g ms\n",
                layer, setup_ms, per_ns, n, setup_ms + per_ns * n * 1e-6);
}

/** A disk I/O the isolated cache replay sent below the cache. */
struct DiskIo
{
    Time time;
    BlockId block;
    bool write;
    std::size_t access; //!< index of the access that caused it
};

/** Mean of per-call samples, less the clock's own cost. */
class CallTimer
{
  public:
    explicit CallTimer(double clock_ns) : clockNs(clock_ns) {}

    template <typename F>
    void
    time(F &&f)
    {
        const uint64_t a = nowNs();
        f();
        const uint64_t b = nowNs();
        sum += static_cast<double>(b - a) - clockNs;
        ++n;
    }

    double meanNs() const { return n ? sum / static_cast<double>(n) : 0; }

  private:
    double clockNs;
    double sum = 0;
    uint64_t n = 0;
};

/** The workload's configuration with an off-line policy replaced by
 *  LRU, for layers that need an on-line one (step, serve, cache). */
ExperimentConfig
onlineConfig(const ExperimentConfig &cfg)
{
    ExperimentConfig out = cfg;
    if (policyNeedsFuture(out.policy))
        out.policy = PolicyKind::LRU;
    out.windowAccesses = 0;
    return out;
}

/** Everything the layer probes share about one workload's input. */
struct Probe
{
    const Workload &w;
    const RunOptions &opt;
    Report &report;
    Gate &gate;
    SpanLog &spans;
    double clockNs;
    Trace trace;
    std::size_t accesses = 0;
    std::vector<DiskIo> ios; //!< recorded by the cache replay
};

template <typename F>
void
forEachAccess(const Trace &trace, F &&f)
{
    std::size_t idx = 0;
    for (std::size_t r = 0; r < trace.size(); ++r) {
        const TraceRecord &rec = trace[r];
        for (uint32_t b = 0; b < rec.numBlocks; ++b, ++idx) {
            f(BlockAccess{rec.time, BlockId{rec.disk, rec.block + b},
                          rec.write, r},
              idx);
        }
    }
}

/** tracefmt: open with checksum verify, then a drain-only pass. */
void
probeTracefmt(Probe &p)
{
    Span span(p.spans, "tracefmt");
    std::vector<double> open, decode;
    uint64_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const uint64_t t0 = nowNs();
        {
            tracefmt::PctMmapSource src(p.opt.input);
            sink += src.header().records;
        }
        open.push_back(msSince(t0));

        tracefmt::PctReadOptions ro;
        ro.verifyChecksum = false;
        tracefmt::PctMmapSource src(p.opt.input, ro);
        TraceRecord rec;
        uint64_t n = 0;
        const uint64_t t1 = nowNs();
        while (src.next(rec)) {
            sink += rec.block ^ static_cast<uint64_t>(rec.write);
            ++n;
        }
        decode.push_back(secondsBetween(t1, nowNs()) * 1e9 /
                         static_cast<double>(std::max<uint64_t>(n, 1)));
        p.gate.check(n == p.w.records, "decode pass saw every record");
    }
    p.gate.check(sink != 0, "decode pass produced records");
    p.report.add("tracefmt.open_ms", median(open), "ms");
    p.report.add("tracefmt.decode_ns", median(decode), "ns");
    printTwoTerm("tracefmt", median(open), median(decode),
                 static_cast<double>(p.w.records));
}

/**
 * cache: the record stream into Cache plus the workload's on-line
 * policy (PA-LRU keeps its classifier fed, untimed). Records the
 * read-miss and dirty-eviction stream for the disk and PA probes.
 */
void
probeCache(Probe &p)
{
    Span span(p.spans, "cache");
    const ExperimentConfig cfg = onlineConfig(p.w.cfg);
    const PowerModel pm(cfg.spec);
    const std::size_t disks = std::max<std::size_t>(p.trace.numDisks(), 1);

    const uint64_t t0 = nowNs();
    std::unique_ptr<PaClassifier> cls;
    if (policyNeedsClassifier(cfg.policy))
        cls = std::make_unique<PaClassifier>(disks,
                                             resolvePaParams(cfg, pm));
    auto policy = makeReplacementPolicy(cfg, pm, cls.get(),
                                        cfg.cacheBlocks);
    Cache cache(cfg.cacheBlocks, *policy);
    const double setupMs = msSince(t0);
    p.report.add("cache.setup_ms", setupMs, "ms");

    CallTimer timer(p.clockNs);
    p.ios.clear();
    const uint64_t t1 = nowNs();
    forEachAccess(p.trace, [&](const BlockAccess &acc, std::size_t i) {
        if (cls)
            cls->onRequest(acc.block.disk, acc.block, acc.time);
        const std::size_t before = p.ios.size();
        CacheResult r;
        if (i % kSampleEvery == 0)
            timer.time([&] { r = cache.access(acc.block, acc.time, i); });
        else
            r = cache.access(acc.block, acc.time, i);
        if (acc.write)
            cache.markDirty(acc.block);
        else if (!r.hit)
            p.ios.push_back(DiskIo{acc.time, acc.block, false, i});
        if (r.evicted && r.victimDirty)
            p.ios.push_back(DiskIo{acc.time, r.victim, true, i});
        for (std::size_t k = before; cls && k < p.ios.size(); ++k)
            cls->onDiskAccess(p.ios[k].block.disk, acc.time);
    });
    const double loopS = secondsBetween(t1, nowNs());

    const CacheStats &cs = cache.stats();
    p.gate.check(cs.accesses == p.accesses, "cache replay saw every access");
    p.report.add("cache.access_ns", timer.meanNs(), "ns");
    p.report.add("cache.hit_ratio", cs.hitRatio(), "ratio");
    p.report.add("cache.evictions", static_cast<double>(cs.evictions),
                 "count");
    printTwoTerm("cache", setupMs, timer.meanNs(),
                 static_cast<double>(p.accesses));
    std::printf("  cache replay (%s): %.4g s, %zu disk I/Os below the "
                "cache\n",
                policy->name(), loopS, p.ios.size());
}

/** core.pa: a fresh classifier fed the requests and the disk I/Os. */
void
probeClassifier(Probe &p)
{
    Span span(p.spans, "core.pa");
    const PowerModel pm(p.w.cfg.spec);
    const std::size_t disks = std::max<std::size_t>(p.trace.numDisks(), 1);
    const uint64_t t0 = nowNs();
    PaClassifier cls(disks, resolvePaParams(p.w.cfg, pm));
    const double setupMs = msSince(t0);
    p.report.add("core.pa.setup_ms", setupMs, "ms");

    CallTimer onRequest(p.clockNs), onDisk(p.clockNs);
    std::size_t io = 0;
    forEachAccess(p.trace, [&](const BlockAccess &acc, std::size_t i) {
        if (i % kSampleEvery == 0) {
            onRequest.time([&] {
                cls.onRequest(acc.block.disk, acc.block, acc.time);
            });
        } else {
            cls.onRequest(acc.block.disk, acc.block, acc.time);
        }
        for (; io < p.ios.size() && p.ios[io].access == i; ++io) {
            const DiskIo &d = p.ios[io];
            if (io % kSampleEvery == 0)
                onDisk.time([&] { cls.onDiskAccess(d.block.disk, d.time); });
            else
                cls.onDiskAccess(d.block.disk, d.time);
        }
    });
    const double perRequest =
        onRequest.meanNs() +
        onDisk.meanNs() * static_cast<double>(p.ios.size()) /
            static_cast<double>(std::max<std::size_t>(p.accesses, 1));
    p.report.add("core.pa.request_ns", perRequest, "ns");
    printTwoTerm("core.pa", setupMs, perRequest,
                 static_cast<double>(p.accesses));
    p.report.add("core.pa.epochs",
                 static_cast<double>(cls.epochsCompleted()), "count");
}

/** OPG: windowed future knowledge, then Cache plus prepared OPG. */
void
probeOpg(Probe &p, const std::optional<Fingerprint> &workload_fp)
{
    Span span(p.spans, "core.opg");
    const PowerModel pm(p.w.cfg.spec);
    WindowedFuture::Options wo;
    wo.windowEntries = p.w.cfg.windowAccesses
                           ? p.w.cfg.windowAccesses
                           : std::max<std::size_t>(p.accesses / 10, 1);
    wo.pinTimes = true;

    const uint64_t t0 = nowNs();
    WindowedFuture fut(p.opt.input, wo);
    const uint64_t t1 = nowNs();
    // The runner's pricing for practical DPM: the practical energy
    // curve, theta = the first NAP mode's transition energy.
    WindowedOpgPolicy opg(pm, DpmKind::Practical,
                          pm.mode(firstEnvelopeNap(pm)).transitionEnergy());
    opg.prepareWindowed(std::move(fut));
    Cache cache(p.w.cfg.cacheBlocks, opg);
    const double prepareMs = msSince(t1);
    p.report.add("cache.future_window.build_s", secondsBetween(t0, t1),
                 "s");
    p.report.add("core.opg.setup_ms", prepareMs, "ms");

    CallTimer timer(p.clockNs);
    forEachAccess(p.trace, [&](const BlockAccess &acc, std::size_t i) {
        if (i % kSampleEvery == 0)
            timer.time([&] { cache.access(acc.block, acc.time, i); });
        else
            cache.access(acc.block, acc.time, i);
        if (acc.write)
            cache.markDirty(acc.block);
    });
    p.report.add("core.opg.access_ns", timer.meanNs(), "ns");
    printTwoTerm("core.opg", secondsBetween(t0, t1) * 1e3 + prepareMs,
                 timer.meanNs(), static_cast<double>(p.accesses));

    // On the OPG workload the isolated replay must make exactly the
    // full stack's replacement decisions.
    if (workload_fp) {
        const CacheStats &cs = cache.stats();
        p.gate.check(cs.hits == workload_fp->hits &&
                         cs.misses == workload_fp->misses &&
                         cs.evictions == workload_fp->evictions,
                     "isolated OPG replay matches the full stack");
    }
}

/**
 * disk + sim: the recorded I/O stream into DiskArray + practical DPM
 * + EventQueue. A timed pass samples submit() and runUntil(); a
 * counting pass drains the queue one event at a time (a sentinel
 * event at each arrival marks where runUntil would stop) and must
 * reproduce the timed pass's energy exactly.
 */
void
probeDisks(Probe &p)
{
    Span span(p.spans, "disk+sim");
    const PowerModel pm(p.w.cfg.spec);
    const ServiceModel sm(p.w.cfg.spec, p.w.cfg.service);
    const std::size_t ndisks =
        std::max<std::size_t>(p.trace.numDisks(), 1);
    const Time horizon = p.trace.endTime() + 3600.0;

    auto request = [](const DiskIo &d) {
        DiskRequest req;
        req.arrival = d.time;
        req.block = d.block.block;
        req.numBlocks = 1;
        req.write = d.write;
        req.cause = d.write ? WakeCause::EvictionWriteback
                            : WakeCause::CapacityMiss;
        return req;
    };
    auto energyOf = [&](DiskArray &disks) {
        EnergyStats agg(pm.numModes());
        std::vector<EnergyStats> per;
        for (DiskId d = 0; d < ndisks; ++d) {
            agg += disks.disk(d).energy();
            per.push_back(disks.disk(d).energy());
        }
        p.gate.check(obs::ledgerMaxRelError(per) <=
                         obs::kLedgerConservationTol,
                     "isolated disk replay ledger conserves");
        return agg.total();
    };

    EventQueue eq;
    PracticalDpm dpm(pm);
    const uint64_t t0 = nowNs();
    DiskArray disks(ndisks, eq, pm, sm, dpm);
    const double setupMs = msSince(t0);
    CallTimer submit(p.clockNs), events(p.clockNs);
    for (std::size_t i = 0; i < p.ios.size(); ++i) {
        const DiskIo &d = p.ios[i];
        if (i % kSampleEvery == 0) {
            events.time([&] { eq.runUntil(d.time); });
            submit.time([&] { disks.submit(d.block.disk, request(d)); });
        } else {
            eq.runUntil(d.time);
            disks.submit(d.block.disk, request(d));
        }
    }
    const uint64_t t1 = nowNs();
    eq.runAll();
    const double drainNs = static_cast<double>(nowNs() - t1);
    disks.finalize(horizon);
    const Energy timedEnergy = energyOf(disks);

    // Events: counted exactly by a second pass.
    uint64_t count = 0;
    EventQueue ceq;
    PracticalDpm cdpm(pm);
    DiskArray cdisks(ndisks, ceq, pm, sm, cdpm);
    for (const DiskIo &d : p.ios) {
        for (;;) {
            bool reached = false;
            ceq.schedule(d.time, [&reached](Time) { reached = true; });
            uint64_t ran = 0;
            while (!reached) {
                ceq.runOne();
                ++ran;
            }
            count += ran - 1; // the sentinel is not an event
            if (ran == 1)
                break;
        }
        cdisks.submit(d.block.disk, request(d));
    }
    while (ceq.runOne())
        ++count;
    cdisks.finalize(horizon);
    p.gate.check(energyOf(cdisks) == timedEnergy,
                 "counting pass reproduces the disk energy");

    const double eventNs =
        (events.meanNs() * static_cast<double>(p.ios.size()) + drainNs) /
        static_cast<double>(std::max<uint64_t>(count, 1));
    p.report.add("disk.setup_ms", setupMs, "ms");
    p.report.add("disk.submit_ns", submit.meanNs(), "ns");
    p.report.add("sim.events", static_cast<double>(count), "count");
    p.report.add("sim.event_ns", eventNs, "ns");
    printTwoTerm("disk", setupMs, submit.meanNs(),
                 static_cast<double>(p.ios.size()));
    printTwoTerm("sim", 0, eventNs, static_cast<double>(count));
}

/**
 * core.storage: an incremental StorageSystem built like the runner's
 * stack (on-line policy), every kStepSampleEvery-th step() timed. On
 * a streamed on-line workload it must reproduce the workload's
 * result bit for bit.
 */
void
probeStorage(Probe &p, const std::optional<Fingerprint> &workload_fp)
{
    Span span(p.spans, "core.storage");
    const ExperimentConfig cfg = onlineConfig(p.w.cfg);
    const PowerModel pm(cfg.spec);
    const ServiceModel sm(cfg.spec, cfg.service);
    const std::size_t ndisks =
        std::max<std::size_t>(p.trace.numDisks(), 1);

    const uint64_t t0 = nowNs();
    std::unique_ptr<PaClassifier> cls;
    if (policyNeedsClassifier(cfg.policy))
        cls = std::make_unique<PaClassifier>(ndisks,
                                             resolvePaParams(cfg, pm));
    auto policy = makeReplacementPolicy(cfg, pm, cls.get(),
                                        cfg.cacheBlocks);
    Cache cache(cfg.cacheBlocks, *policy);
    EventQueue eq;
    AlwaysOnDpm alwaysOn;
    PracticalDpm dpm(pm);
    DiskArray disks(ndisks, eq, pm, sm, dpm);
    std::unique_ptr<Disk> logDisk;
    if (cfg.storage.writePolicy == WritePolicy::WriteThroughDeferredUpdate)
        logDisk = std::make_unique<Disk>(static_cast<DiskId>(ndisks), eq,
                                         pm, sm, alwaysOn);
    StorageSystem sys(eq, cache, disks, cfg.storage, cls.get(),
                      logDisk.get());
    const double setupMs = msSince(t0);
    p.report.add("core.storage.setup_ms", setupMs, "ms");

    std::vector<double> steps;
    steps.reserve(p.accesses / kStepSampleEvery + 1);
    forEachAccess(p.trace, [&](const BlockAccess &acc, std::size_t i) {
        if (i % kStepSampleEvery == 0) {
            const uint64_t a = nowNs();
            sys.step(acc, i);
            steps.push_back(static_cast<double>(nowNs() - a) - p.clockNs);
        } else {
            sys.step(acc, i);
        }
    });
    sys.finish(p.trace.endTime());

    EnergyStats agg(pm.numModes());
    std::vector<EnergyStats> per;
    uint64_t ios = sys.logWrites();
    for (DiskId d = 0; d < ndisks; ++d) {
        agg += disks.disk(d).energy();
        per.push_back(disks.disk(d).energy());
        ios += sys.diskAccesses()[d];
    }
    p.gate.check(obs::ledgerMaxRelError(per) <= obs::kLedgerConservationTol,
                 "incremental stack ledger conserves");
    if (workload_fp) {
        Fingerprint fp;
        fp.hits = cache.stats().hits;
        fp.misses = cache.stats().misses;
        fp.evictions = cache.stats().evictions;
        fp.totalEnergy = agg.total() +
                         (logDisk ? logDisk->energy().serviceEnergy : 0);
        p.gate.check(fp == *workload_fp,
                     "incremental step() stack matches the streamed run");
    }
    p.report.add("core.storage.step_ns.p50", quantile(steps, 0.5), "ns");
    p.report.add("core.storage.step_ns.p99", quantile(steps, 0.99), "ns");
    p.report.add("core.storage.disk_ios", static_cast<double>(ios),
                 "count");
    double sum = 0;
    for (double x : steps)
        sum += x;
    printTwoTerm("core.storage", setupMs,
                 sum / static_cast<double>(std::max<std::size_t>(
                           steps.size(), 1)),
                 static_cast<double>(p.accesses));
    std::printf("  step: %zu samples, %llu log writes\n", steps.size(),
                static_cast<unsigned long long>(sys.logWrites()));
}

/** runner: sharded replay at jobs=1 and jobs=N, demux from phases. */
void
probeRunner(Probe &p)
{
    Span span(p.spans, "runner");
    Workload sharded = p.w;
    sharded.entry = Entry::Sharded;
    if (policyNeedsFuture(sharded.cfg.policy) &&
        sharded.cfg.windowAccesses == 0)
        sharded.cfg.windowAccesses = p.accesses / 10;
    const unsigned jobs = shardJobs();

    const RunOutcome one = runReplay(sharded, p.opt, 1);
    obs::Profiler prof;
    const RunOutcome many = runReplay(sharded, p.opt, jobs, &prof);
    p.gate.check(Fingerprint(one.result) == Fingerprint(many.result),
                 "sharded replay identical at jobs=1 and jobs=N");
    double demux = 0;
    for (const obs::ProfilePhase &ph : prof.phases()) {
        if (ph.name == "shard_demux")
            demux += ph.totalSeconds;
    }
    p.report.add("runner.parallel_eff",
                 one.wallS / (static_cast<double>(jobs) * many.wallS),
                 "ratio");
    p.report.add("runner.demux_s", demux, "s");
}

/**
 * serve: the serve topology on this input, paced at the reference
 * rate, then the highest rate it sustains (p99 from due time within
 * kServeP99LimitS and the pacer not falling behind).
 */
void
probeServe(Probe &p)
{
    Span span(p.spans, "serve");
    const ExperimentConfig cfg = onlineConfig(p.w.cfg);
    const uint64_t records = std::min(p.w.records, kPacedRecords);
    std::optional<Fingerprint> ref;
    auto trial = [&](double rate) {
        ServeTrial t = serveTrial(cfg, p.opt.input, rate, records);
        p.gate.check(t.requests == records, "serve probe fed every record");
        p.gate.ledgerConserves(t.result);
        p.gate.sameAs(ref, Fingerprint(t.result),
                      "serve probe identical across trials");
        return t;
    };
    trial(kServeRefRateMrps); // warm-up: its timings are dropped
    const ServeTrial t = trial(kServeRefRateMrps);
    p.report.add("serve.max_rate_mreq_s", searchMaxRate([&](double rate) {
                     return trial(rate).sustained;
                 }),
                 "Mreq/s");
    p.report.add("serve.setup_ms", t.setupS * 1e3, "ms");
    p.report.add("serve.submit_ns.p50", quantile(t.submitNs, 0.5), "ns");
    p.report.add("serve.submit_ns.p99", quantile(t.submitNs, 0.99), "ns");
    p.report.add("serve.gen_late_ms", t.lateP99S * 1e3, "ms");
    p.report.add("serve.finish_ms", t.finishS * 1e3, "ms");
    p.report.add("serve.p50_ms", t.p50S * 1e3, "ms");
    p.report.add("serve.p99_ms", t.p99S * 1e3, "ms");
}

} // namespace

void
runLayers(const Workload &w, const RunOptions &opt, Report &report,
          Gate &gate)
{
    SpanLog spans;

    // The workload itself, untraced and then traced (the library's
    // phase profiler attached where the entry point takes one, and a
    // span around the call), for the tracing overhead.
    std::vector<double> untraced;
    std::optional<Fingerprint> ref;
    double tracedS = 0;
    if (w.entry == Entry::Serve) {
        // Unpaced, as the end-to-end throughput is measured.
        for (int i = 0; i < 3; ++i) {
            gate.beginRun();
            const ServeTrial t = serveTrial(w.cfg, opt.input, 0, w.records);
            gate.ledgerConserves(t.result);
            gate.sameAs(ref, Fingerprint(t.result),
                        "serve result identical across trials");
            untraced.push_back(t.wallS);
        }
        gate.beginRun();
        Span span(spans, "workload (traced)");
        const ServeTrial t = serveTrial(w.cfg, opt.input, 0, w.records);
        gate.sameAs(ref, Fingerprint(t.result),
                    "traced serve result identical");
        tracedS = t.wallS;
    } else {
        for (int i = 0; i < 3; ++i) {
            gate.beginRun();
            const RunOutcome o = runReplay(w, opt);
            gate.ledgerConserves(o.result);
            gate.sameAs(ref, Fingerprint(o.result),
                        "result identical across repetitions");
            untraced.push_back(o.wallS);
        }
        gate.beginRun();
        obs::Profiler prof;
        Span span(spans, "workload (traced)");
        const RunOutcome o = runReplay(w, opt, 0, &prof);
        gate.sameAs(ref, Fingerprint(o.result),
                    "traced result identical to untraced");
        tracedS = o.wallS;
    }
    report.add("untraced.throughput_mreq_s",
               static_cast<double>(w.records) / median(untraced) / 1e6,
               "Mreq/s");
    report.add("trace_overhead_frac", tracedS / median(untraced) - 1.0,
               "ratio");

    // The isolated layer replays, on this workload's records.
    tracefmt::PctReadOptions ro;
    ro.verifyChecksum = false;
    tracefmt::PctMmapSource src(opt.input, ro);
    Probe p{w, opt, report, gate, spans, clockOverheadNs(),
            tracefmt::readAll(src), 0, {}};
    p.accesses = p.trace.numBlockAccesses();
    const bool onlineStream = w.entry == Entry::Stream &&
                              !policyNeedsFuture(w.cfg.policy);
    const bool opgStream = w.entry == Entry::Stream &&
                           w.cfg.policy == PolicyKind::OPG;
    std::printf("%s traced: %zu accesses, clock read %.3g ns\n",
                w.name.c_str(), p.accesses, p.clockNs);

    probeTracefmt(p);
    probeCache(p);
    probeClassifier(p);
    probeOpg(p, opgStream ? ref : std::nullopt);
    probeDisks(p);
    probeStorage(p, onlineStream ? ref : std::nullopt);
    probeRunner(p);
    probeServe(p);
    report.add("obs.ledger_rel_error", gate.maxLedgerError(), "ratio");

    if (!opt.spansOut.empty())
        gate.check(spans.write(opt.spansOut), "span JSON written");
}

} // namespace perfbench
