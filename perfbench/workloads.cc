/**
 * @file
 * The four named workloads, their seeded inputs, and the untraced
 * end-to-end run that yields the gated metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hh"
#include "obs/profiler.hh"
#include "runner/shard_replay.hh"
#include "serve/server.hh"
#include "trace/stream_gen.hh"
#include "tracefmt/pct.hh"
#include "util/log_histogram.hh"
#include "util/mem.hh"

namespace perfbench
{

using namespace pacache;

namespace
{

/** Cache size of every workload: 65536 blocks of 4 KiB (256 MiB). */
constexpr std::size_t kCacheBlocks = std::size_t(1) << 16;

/** Serve requests whose due time stamps the latency histogram. */
constexpr uint64_t kLatencyEvery = 4;
/** Serve requests whose submit() call is timed. */
constexpr uint64_t kSubmitTimedEvery = 16;

Workload
baseWorkload(const std::string &name, Generator gen, uint64_t records,
             PolicyKind policy, WritePolicy write_policy, Entry entry)
{
    Workload w;
    w.name = name;
    w.gen = gen;
    w.records = records;
    w.entry = entry;
    w.cfg.policy = policy;
    w.cfg.dpm = DpmChoice::Practical;
    w.cfg.cacheBlocks = kCacheBlocks;
    w.cfg.storage.writePolicy = write_policy;
    return w;
}

/** A PctMmapSource that notes when the first record is pulled. */
class FirstRecordSource : public tracefmt::PctMmapSource
{
  public:
    explicit FirstRecordSource(const std::string &path)
        : PctMmapSource(path)
    {
    }

    bool
    next(TraceRecord &out) override
    {
        if (firstNs == 0)
            firstNs = nowNs();
        return PctMmapSource::next(out);
    }

    uint64_t firstNs = 0;
};

double
phaseSeconds(const std::vector<obs::ProfilePhase> &phases,
             const std::string &name)
{
    double s = 0;
    for (const obs::ProfilePhase &p : phases) {
        if (p.name == name)
            s += p.totalSeconds;
    }
    return s;
}

/** The simulated metrics every workload reports. */
void
addSimulatedMetrics(const ExperimentResult &r, Report &report)
{
    report.add("energy_j", r.totalEnergy, "J");
    report.add("miss_ratio",
               r.cache.accesses ? static_cast<double>(r.cache.misses) /
                                      static_cast<double>(r.cache.accesses)
                                : 0.0,
               "ratio");
    report.add("sim_resp_mean_ms", r.responses.mean() * 1e3, "sim_ms");
    report.add("spinups", static_cast<double>(r.energy.spinUps), "count");
}

/** Print a timing's median, quartiles and sample count. */
void
printTiming(const std::string &what, const std::vector<double> &v,
            const char *unit)
{
    std::printf("  %-22s median %.6g %s, q1 %.6g, q3 %.6g, n=%zu:",
                what.c_str(), median(v), unit, quantile(v, 0.25),
                quantile(v, 0.75), v.size());
    for (double x : v)
        std::printf(" %.5g", x);
    std::printf("\n");
}

/**
 * Quantile @p q of @p h, interpolated linearly inside the bucket that
 * holds its rank: the bucket midpoint alone would report the same
 * value for every run whose quantile lands in one bucket.
 */
double
interpolatedQuantile(const LogHistogram &h, double q)
{
    if (h.empty())
        return 0;
    const double rank = std::max(1.0, q * static_cast<double>(h.count()));
    double below = 0;
    for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
        const double n = static_cast<double>(h.bucketCount(i));
        if (n > 0 && below + n >= rank) {
            const double lo = std::max(LogHistogram::bucketLow(i), h.min());
            const double hi = std::min(LogHistogram::bucketHigh(i), h.max());
            return hi <= lo ? lo : lo + (hi - lo) * (rank - below) / n;
        }
        below += n;
    }
    return h.max();
}

double
peakRssMiB()
{
    return static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
}

void
runServeEndToEnd(const Workload &w, const RunOptions &opt,
                 Report &report, Gate &gate)
{
    const uint64_t startNs = nowNs();
    std::optional<Fingerprint> floodRef, pacedRef;
    auto trial = [&](double rate, uint64_t records,
                     std::optional<Fingerprint> &ref) {
        gate.beginRun();
        ServeTrial t = serveTrial(w.cfg, opt.input, rate, records);
        gate.check(t.requests == records, "serve fed every record");
        gate.ledgerConserves(t.result);
        gate.sameAs(ref, Fingerprint(t.result),
                    "serve result identical across trials");
        return t;
    };

    // Capacity: unpaced (flood) trials over the whole input, after one
    // warm-up trial whose timings are dropped.
    ServeTrial first = trial(0, w.records, floodRef);
    const double peakMiB = peakRssMiB();
    std::vector<double> tput, setup;
    do {
        const ServeTrial t = trial(0, w.records, floodRef);
        tput.push_back(static_cast<double>(t.requests) / t.wallS / 1e6);
        setup.push_back(t.setupS);
    } while (tput.size() < 3 ||
             (secondsBetween(startNs, nowNs()) < opt.seconds &&
              tput.size() < 200));

    // Latency from due time at the reference rate (informational; the
    // traced run reports it per layer with the highest sustained rate).
    std::vector<double> p50, p99, tail;
    uint64_t samples = 0;
    double tailQ = 0;
    for (int i = 0; i < 2; ++i) {
        const ServeTrial t = trial(kServeRefRateMrps,
                                   std::min(w.records, kPacedRecords),
                                   pacedRef);
        p50.push_back(t.p50S * 1e3);
        p99.push_back(t.p99S * 1e3);
        tail.push_back(t.tailS * 1e3);
        samples = t.latencySamples;
        tailQ = t.tailQ;
    }

    std::printf("%s: %llu records, %zu stripes, %zu workers\n",
                w.name.c_str(),
                static_cast<unsigned long long>(w.records), kServeStripes,
                kServeWorkers);
    printTiming("flood throughput", tput, "Mreq/s");
    printTiming("setup", setup, "s");
    printTiming("p50 at ref rate", p50, "ms");
    printTiming("p99 at ref rate", p99, "ms");
    char tailName[32];
    std::snprintf(tailName, sizeof(tailName), "p%.4g at ref rate",
                  tailQ * 100);
    printTiming(tailName, tail, "ms");
    std::printf("  %.4g Mreq/s reference rate, %llu latency samples "
                "per paced trial\n",
                kServeRefRateMrps, static_cast<unsigned long long>(samples));

    report.add("throughput_mreq_s", median(tput), "Mreq/s");
    report.add("setup_s", median(setup), "s");
    report.add("peak_rss_mb", peakMiB, "MiB");
    addSimulatedMetrics(first.result, report);
}

} // namespace

std::optional<Workload>
findWorkload(const std::string &name, bool tiny)
{
    const uint64_t small = 20000;
    if (name == "oltp-palru") {
        return baseWorkload(name, Generator::Oltp,
                            tiny ? small : 2000000, PolicyKind::PALRU,
                            WritePolicy::WriteBack, Entry::Stream);
    }
    if (name == "oltp-opg-window") {
        Workload w = baseWorkload(name, Generator::Oltp,
                                  tiny ? small : 1000000,
                                  PolicyKind::OPG, WritePolicy::WriteBack,
                                  Entry::Stream);
        // Future knowledge is windowed to a tenth of the trace.
        w.cfg.windowAccesses = static_cast<std::size_t>(w.records / 10);
        return w;
    }
    if (name == "cello-wtdu-sharded") {
        return baseWorkload(name, Generator::Cello,
                            tiny ? small : 2000000, PolicyKind::LRU,
                            WritePolicy::WriteThroughDeferredUpdate,
                            Entry::Sharded);
    }
    if (name == "serve-oltp-paced") {
        return baseWorkload(name, Generator::Oltp,
                            tiny ? small : 1000000, PolicyKind::PALRU,
                            WritePolicy::WriteBack, Entry::Serve);
    }
    return std::nullopt;
}

void
generateInput(const Workload &w, uint64_t seed, const std::string &path)
{
    StreamingSyntheticSource src(w.gen == Generator::Oltp
                                     ? scaledOltpStreams(kDisks)
                                     : scaledCelloStreams(kDisks),
                                 0.0, seed, w.records);
    // Write aside and rename, so an interrupted run never leaves a
    // truncated input that a later run would take as cached.
    const std::string part = path + ".part";
    const tracefmt::PctInfo info = tracefmt::writePct(part, src);
    if (info.records != w.records) {
        std::remove(part.c_str());
        PACACHE_FATAL("generator produced ", info.records, " of ",
                      w.records, " records");
    }
    if (std::rename(part.c_str(), path.c_str()) != 0)
        PACACHE_FATAL("cannot rename '", part, "' to '", path, "'");
}

unsigned
shardJobs()
{
    // Half the cores: the pool runs beside whatever else the host
    // runs, which keeps the parallel timing steadier.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::clamp(hw / 2, 1u, kShards);
}

double
searchMaxRate(const std::function<bool(double)> &sustained_at)
{
    static const double kLadder[] = {0.125, 0.25, 0.5, 1.0, 1.5,
                                     2.0,   3.0,  4.0, 6.0};
    double lo = 0, hi = 0;
    for (double r : kLadder) {
        if (r < kServeRefRateMrps)
            continue;
        if (!sustained_at(r)) {
            hi = r;
            break;
        }
        lo = r;
    }
    if (lo == 0) {
        for (auto it = std::rbegin(kLadder); it != std::rend(kLadder);
             ++it) {
            if (*it >= hi)
                continue;
            if (sustained_at(*it)) {
                lo = *it;
                break;
            }
            hi = *it;
        }
    }
    if (lo > 0 && hi > 0) {
        for (int step = 0; step < 3; ++step) {
            const double mid = std::sqrt(lo * hi);
            if (sustained_at(mid))
                lo = mid;
            else
                hi = mid;
        }
    }
    return lo;
}

RunOutcome
runReplay(const Workload &w, const RunOptions &opt, unsigned jobs,
          obs::Profiler *profiler)
{
    RunOutcome out;
    ExperimentConfig cfg = w.cfg;
    if (w.entry == Entry::Sharded) {
        // The orchestration phases tell setup (demux) from replay.
        obs::Profiler local;
        obs::Profiler &prof = profiler ? *profiler : local;
        cfg.profiler = &prof;
        runner::ShardReplayOptions so;
        so.shards = kShards;
        so.jobs = jobs ? jobs : shardJobs();
        so.tempDir = opt.tmpDir;
        const uint64_t t0 = nowNs();
        out.result = runner::runShardedExperiment(opt.input, cfg, so);
        out.wallS = secondsBetween(t0, nowNs());
        const std::vector<obs::ProfilePhase> phases = prof.phases();
        out.setupS = out.wallS - phaseSeconds(phases, "replay") -
                     phaseSeconds(phases, "merge");
        return out;
    }
    PACACHE_ASSERT(w.entry == Entry::Stream, "not a replay workload");
    cfg.profiler = profiler;
    const uint64_t t0 = nowNs();
    FirstRecordSource src(opt.input);
    out.result = runExperiment(src, cfg);
    const uint64_t t1 = nowNs();
    out.wallS = secondsBetween(t0, t1);
    out.setupS = secondsBetween(t0, src.firstNs ? src.firstNs : t1);
    return out;
}

ServeTrial
serveTrial(const ExperimentConfig &exp, const std::string &input,
           double rate_mrps, uint64_t max_records)
{
    ServeTrial t;
    const uint64_t t0 = nowNs();
    tracefmt::PctMmapSource src(input);
    serve::ServeConfig cfg;
    cfg.exp = exp;
    cfg.numDisks = std::max<std::size_t>(src.numDisksHint(), 1);
    cfg.shards = kServeStripes;
    cfg.threads = kServeWorkers;
    serve::ServeServer server(cfg);
    server.start();
    const uint64_t t1 = nowNs();
    t.setupS = secondsBetween(t0, t1);

    // Open loop: record i is due at base + i / rate regardless of how
    // the server keeps up, and its latency runs from that due time, so
    // a stall is charged to every request queued behind it.
    const double periodNs = rate_mrps > 0 ? 1e3 / rate_mrps : 0.0;
    LogHistogram late;
    TraceRecord rec;
    serve::ServeRequest req;
    uint64_t idx = 0;
    Time last = 0;
    const uint64_t base = nowNs();
    while (t.requests < max_records && src.next(rec)) {
        uint64_t now = nowNs();
        uint64_t due = now;
        if (periodNs > 0) {
            due = base + static_cast<uint64_t>(
                             static_cast<double>(t.requests) * periodNs);
            while (now < due)
                now = nowNs();
        }
        t.lateEndS = secondsBetween(due, now);
        late.record(t.lateEndS);
        for (uint32_t b = 0; b < rec.numBlocks; ++b, ++idx) {
            req.time = rec.time;
            req.block = BlockId{rec.disk, rec.block + b};
            req.write = rec.write;
            req.traceIndex = t.requests;
            req.idx = idx;
            req.submitNs = idx % kLatencyEvery == 0 ? due : 0;
            if (idx % kSubmitTimedEvery == 0) {
                const uint64_t s0 = nowNs();
                server.submit(req);
                t.submitNs.push_back(
                    static_cast<double>(nowNs() - s0));
            } else {
                server.submit(req);
            }
        }
        last = rec.time;
        ++t.requests;
    }
    const uint64_t f0 = nowNs();
    serve::ServeResult res = server.finish(last);
    const uint64_t f1 = nowNs();
    t.finishS = secondsBetween(f0, f1);
    t.wallS = secondsBetween(t0, f1);
    t.latencySamples = res.latency.count();
    t.p50S = interpolatedQuantile(res.latency, 0.5);
    t.p99S = interpolatedQuantile(res.latency, 0.99);
    if (t.latencySamples > 10) {
        t.tailQ = 1.0 - 10.0 / static_cast<double>(t.latencySamples);
        t.tailS = interpolatedQuantile(res.latency, t.tailQ);
    }
    t.lateP99S = interpolatedQuantile(late, 0.99);
    t.sustained =
        t.p99S <= kServeP99LimitS && t.lateEndS <= kServeP99LimitS;
    t.result = std::move(res.result);
    return t;
}

void
runEndToEnd(const Workload &w, const RunOptions &opt, Report &report,
            Gate &gate)
{
    if (w.entry == Entry::Serve) {
        runServeEndToEnd(w, opt, report, gate);
        return;
    }
    const uint64_t startNs = nowNs();
    std::optional<Fingerprint> ref;
    double peakMiB = 0;
    if (w.entry == Entry::Sharded) {
        // The shard count, not the worker count, fixes the result.
        // Peak memory is taken from this sequential run: with shards
        // in flight together it would depend on their scheduling.
        gate.beginRun();
        const RunOutcome one = runReplay(w, opt, 1);
        gate.ledgerConserves(one.result);
        ref = Fingerprint(one.result);
        peakMiB = peakRssMiB();
    }
    std::vector<double> tput, setup;
    ExperimentResult first;
    do {
        gate.beginRun();
        RunOutcome o = runReplay(w, opt);
        gate.ledgerConserves(o.result);
        gate.check(o.result.cache.accesses == w.records,
                   "every record replayed");
        gate.sameAs(ref, Fingerprint(o.result),
                    w.entry == Entry::Sharded
                        ? "sharded result identical at jobs=1 and jobs=N"
                        : "result identical across repetitions");
        tput.push_back(static_cast<double>(w.records) / o.wallS / 1e6);
        setup.push_back(o.setupS);
        if (tput.size() == 1) {
            if (w.entry == Entry::Stream)
                peakMiB = peakRssMiB();
            first = std::move(o.result);
        }
    } while (tput.size() < 3 ||
             (secondsBetween(startNs, nowNs()) < opt.seconds &&
              tput.size() < 200));

    std::printf("%s: %llu records, %zu-block cache\n", w.name.c_str(),
                static_cast<unsigned long long>(w.records),
                w.cfg.cacheBlocks);
    printTiming("throughput", tput, "Mreq/s");
    printTiming("setup", setup, "s");

    report.add("throughput_mreq_s", median(tput), "Mreq/s");
    report.add("setup_s", median(setup), "s");
    report.add("peak_rss_mb", peakMiB, "MiB");
    addSimulatedMetrics(first, report);
}

} // namespace perfbench
