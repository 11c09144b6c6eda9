#include "qa/properties.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "cache/belady.hh"
#include "obs/energy_ledger.hh"
#include "util/log_histogram.hh"
#include "cache/cache.hh"
#include "cache/future_window.hh"
#include "cache/lru.hh"
#include "core/experiment.hh"
#include "core/opg.hh"
#include "core/wtdu_log.hh"
#include "disk/power_model.hh"
#include "core/pa_classifier.hh"
#include "qa/crash.hh"
#include "qa/gen.hh"
#include "qa/naive_oracle.hh"
#include "runner/shard_replay.hh"
#include "runner/sweep.hh"
#include "serve/server.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/trace_source.hh"
#include "util/temp_file.hh"

namespace pacache::qa
{

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

std::string
blockStr(const BlockId &b)
{
    std::ostringstream os;
    os << '(' << b.disk << ',' << b.block << ')';
    return os.str();
}

/** Victim-recording pass-through (the oracle-equivalence pattern). */
class RecordingPolicy : public ReplacementPolicy
{
  public:
    explicit RecordingPolicy(ReplacementPolicy &inner_) : inner(&inner_) {}

    const char *name() const override { return inner->name(); }

    void
    onAccess(const BlockId &block, CacheSlot slot, Time now,
             std::size_t idx, bool hit) override
    {
        inner->onAccess(block, slot, now, idx, hit);
    }

    void
    beforeMiss(const BlockId &block, Time now, std::size_t idx) override
    {
        inner->beforeMiss(block, now, idx);
    }

    void
    onRemove(const BlockId &block, CacheSlot slot) override
    {
        inner->onRemove(block, slot);
    }

    BlockId
    evict(Time now, std::size_t idx) override
    {
        BlockId victim = inner->evict(now, idx);
        victims.push_back(victim);
        return victim;
    }

    bool supportsPrefetch() const override
    {
        return inner->supportsPrefetch();
    }

    std::vector<BlockId> victims;

  private:
    ReplacementPolicy *inner;
};

struct Replay
{
    std::vector<BlockId> victims;
    CacheStats stats;
};

Replay
replayPolicy(const FuzzCase &c, ReplacementPolicy &policy)
{
    const std::vector<BlockAccess> accesses = expandTrace(c.trace);
    RecordingPolicy rec(policy);
    Cache cache(c.cfg.cacheBlocks > 0 ? c.cfg.cacheBlocks : 1, rec);
    for (std::size_t i = 0; i < accesses.size(); ++i)
        cache.access(accesses[i].block, accesses[i].time, i);
    return {std::move(rec.victims), cache.stats()};
}

/** Exact-compare two experiment results; "" when identical. */
std::string
diffResults(const ExperimentResult &a, const ExperimentResult &b)
{
    std::ostringstream os;
    auto field = [&os](const char *name, auto x, auto y) {
        if (os.tellp() == 0 && !(x == y))
            os << name << ": " << x << " vs " << y;
    };

    field("cache.accesses", a.cache.accesses, b.cache.accesses);
    field("cache.hits", a.cache.hits, b.cache.hits);
    field("cache.misses", a.cache.misses, b.cache.misses);
    field("cache.evictions", a.cache.evictions, b.cache.evictions);
    field("cache.coldMisses", a.cache.coldMisses, b.cache.coldMisses);
    field("totalEnergy", a.totalEnergy, b.totalEnergy);
    field("energy.total", a.energy.total(), b.energy.total());
    field("energy.serviceEnergy", a.energy.serviceEnergy,
          b.energy.serviceEnergy);
    field("energy.spinUps", a.energy.spinUps, b.energy.spinUps);
    field("energy.spinDowns", a.energy.spinDowns, b.energy.spinDowns);
    field("responses.count", a.responses.count(), b.responses.count());
    field("responses.sum", a.responses.sum(), b.responses.sum());
    field("responses.max", a.responses.max(), b.responses.max());
    field("logWrites", a.logWrites, b.logWrites);
    field("prefetchedBlocks", a.prefetchedBlocks, b.prefetchedBlocks);
    field("numModes", a.numModes, b.numModes);
    field("perDisk.size", a.perDisk.size(), b.perDisk.size());
    if (os.tellp() != 0)
        return os.str();

    for (std::size_t d = 0; d < a.perDisk.size(); ++d) {
        const EnergyStats &x = a.perDisk[d];
        const EnergyStats &y = b.perDisk[d];
        std::ostringstream pre;
        pre << "perDisk[" << d << "].";
        const std::string p = pre.str();
        field((p + "total").c_str(), x.total(), y.total());
        field((p + "busyTime").c_str(), x.busyTime, y.busyTime);
        field((p + "requests").c_str(), x.requests, y.requests);
        field((p + "spinUps").c_str(), x.spinUps, y.spinUps);
        field((p + "spinDowns").c_str(), x.spinDowns, y.spinDowns);
        for (std::size_t m = 0;
             m < x.idleEnergyPerMode.size() &&
             m < y.idleEnergyPerMode.size();
             ++m) {
            field((p + "idleEnergy[mode]").c_str(),
                  x.idleEnergyPerMode[m], y.idleEnergyPerMode[m]);
            field((p + "timePerMode[mode]").c_str(), x.timePerMode[m],
                  y.timePerMode[m]);
        }
        if (os.tellp() != 0)
            return os.str();
    }

    if (a.diskAccesses != b.diskAccesses)
        return "diskAccesses differ";
    if (a.diskMeanInterArrival != b.diskMeanInterArrival)
        return "diskMeanInterArrival differ";
    return {};
}

// ---------------------------------------------------------------
// Differential properties: fast path vs reference.
// ---------------------------------------------------------------

PropertyResult
propOpgMatchesRef(const FuzzCase &c)
{
    const PowerModel pm = c.powerModel();
    const std::vector<BlockAccess> accesses = expandTrace(c.trace);
    OpgPolicy fast(pm, c.cfg.dpmKind, c.cfg.theta);
    fast.prepareWindowed(WindowedFuture(accesses));
    NaiveOracle ref(pm, c.cfg.dpmKind, c.cfg.theta);
    ref.prepare(accesses);
    return checkPolicyDifferential(c, fast, ref);
}

PropertyResult
propBeladyMatchesRef(const FuzzCase &c)
{
    const std::vector<BlockAccess> accesses = expandTrace(c.trace);
    BeladyPolicy fast;
    fast.prepareWindowed(WindowedFuture(accesses));
    NaiveOracle ref;
    ref.prepare(accesses);
    return checkPolicyDifferential(c, fast, ref);
}

PropertyResult
propEnergyTablesMatchLegacy(const FuzzCase &c)
{
    const PowerModel pm = c.powerModel();
    Rng rng(deriveSeed(c.seed, 0x7ab1e5));

    std::vector<Time> samples{0.0,
                              std::numeric_limits<Time>::infinity()};
    for (const Time t : pm.thresholds()) {
        samples.push_back(t);
        samples.push_back(std::nextafter(t, 0.0));
        samples.push_back(std::nextafter(
            t, std::numeric_limits<Time>::infinity()));
    }
    for (std::size_t m = 0; m < pm.numModes(); ++m) {
        const Time be = pm.breakEvenTime(m);
        if (std::isfinite(be)) {
            samples.push_back(be);
            samples.push_back(std::nextafter(be, 0.0));
        }
    }
    for (int i = 0; i < 200; ++i)
        samples.push_back(std::pow(10.0, rng.uniform(-3.0, 5.0)));

    for (const Time t : samples) {
        const Energy env = pm.envelope(t);
        const Energy envRef = pm.envelopeRef(t);
        if (env != envRef)
            return failMsg("envelope(", formatExact(t), ") = ",
                           formatExact(env), " but legacy scan gives ",
                           formatExact(envRef));
        const Energy prac = pm.practicalEnergy(t);
        const Energy pracRef = pm.practicalEnergyRef(t);
        if (prac != pracRef)
            return failMsg("practicalEnergy(", formatExact(t), ") = ",
                           formatExact(prac),
                           " but legacy walk gives ",
                           formatExact(pracRef));
        if (pm.bestMode(t) != pm.bestModeRef(t))
            return failMsg("bestMode(", formatExact(t), ") = ",
                           pm.bestMode(t), " but legacy scan gives ",
                           pm.bestModeRef(t));
    }
    return PropertyResult::ok();
}

// ---------------------------------------------------------------
// Metamorphic properties: two runs that must agree by construction.
// ---------------------------------------------------------------

PropertyResult
propStreamingMatchesMaterialized(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    const ExperimentConfig cfg = c.experimentConfig();
    const ExperimentResult mat = runExperiment(c.trace, cfg);
    tracefmt::MemorySource src(c.trace);
    const ExperimentResult streamed = runExperiment(src, cfg);
    const std::string diff = diffResults(mat, streamed);
    if (!diff.empty())
        return failMsg("streaming replay diverges from materialized: ",
                       diff);
    return PropertyResult::ok();
}

PropertyResult
propWindowedOracleEquivalence(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    // Fuzz the out-of-core geometry: windows from one access up to
    // past the trace length, so build flushes, window refills, and
    // the single-window degenerate case all get exercised.
    Rng rng(deriveSeed(c.seed, 0x5ca1e));
    const std::size_t accesses =
        std::max<std::size_t>(c.trace.numBlockAccesses(), 1);
    ExperimentConfig cfg = c.experimentConfig();
    cfg.policy = rng.chance(0.5) ? PolicyKind::OPG : PolicyKind::Belady;
    cfg.windowAccesses = 1 + rng.below(accesses + 8);

    ExperimentConfig mat_cfg = cfg;
    mat_cfg.windowAccesses = 0;
    const ExperimentResult mat = runExperiment(c.trace, mat_cfg);

    const ScopedTempFile tmp("pacache-qa-", ".pct");
    {
        tracefmt::MemorySource src(c.trace);
        tracefmt::writePct(tmp.path(), src);
    }
    tracefmt::PctMmapSource src(tmp.path());
    const ExperimentResult windowed = runExperiment(src, cfg);
    const std::string diff = diffResults(mat, windowed);
    if (!diff.empty())
        return failMsg("windowed oracle (window=", cfg.windowAccesses,
                       ", ", policyKindName(cfg.policy),
                       ") diverges from the materialized oracle: ",
                       diff);
    return PropertyResult::ok();
}

PropertyResult
propSpilledOracleEquivalence(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    // Spilling moves oracle state between RAM and the spill file but
    // never changes a value, so every budget — one byte (pages spill
    // the moment an operation releases them), a small fuzzed budget
    // (steady churn), or SIZE_MAX (machinery engaged, never evicts)
    // — must replay bit-identically to the unbounded in-memory
    // oracle.  Belady ignores the budget and must be unaffected.
    Rng rng(deriveSeed(c.seed, 0x5b111));
    ExperimentConfig cfg = c.experimentConfig();
    cfg.policy = rng.chance(0.8) ? PolicyKind::OPG : PolicyKind::Belady;
    cfg.windowAccesses = 0;
    cfg.oracleMemBudget = 0;
    const ExperimentResult want = runExperiment(c.trace, cfg);

    const std::size_t budgets[] = {
        1, 1 + rng.below(std::size_t{64} << 10),
        static_cast<std::size_t>(-1)};
    for (const std::size_t budget : budgets) {
        ExperimentConfig bcfg = cfg;
        bcfg.oracleMemBudget = budget;
        const ExperimentResult got = runExperiment(c.trace, bcfg);
        const std::string diff = diffResults(want, got);
        if (!diff.empty())
            return failMsg("budget=", budget, " materialized ",
                           policyKindName(cfg.policy),
                           " diverges from unbounded in-memory: ",
                           diff);
    }

    // The out-of-core build hands its entries over through a sidecar
    // file and a window rather than all at once, so fuzz the window
    // geometry along with the budget.
    ExperimentConfig wcfg = cfg;
    const std::size_t accesses =
        std::max<std::size_t>(c.trace.numBlockAccesses(), 1);
    wcfg.windowAccesses = 1 + rng.below(accesses + 8);
    wcfg.oracleMemBudget = 1 + rng.below(std::size_t{16} << 10);
    const ScopedTempFile tmp("pacache-qa-", ".pct");
    {
        tracefmt::MemorySource src(c.trace);
        tracefmt::writePct(tmp.path(), src);
    }
    tracefmt::PctMmapSource src(tmp.path());
    const ExperimentResult windowed = runExperiment(src, wcfg);
    const std::string diff = diffResults(want, windowed);
    if (!diff.empty())
        return failMsg("budget=", wcfg.oracleMemBudget,
                       " windowed (window=", wcfg.windowAccesses,
                       ", ", policyKindName(cfg.policy),
                       ") diverges from unbounded in-memory: ", diff);
    return PropertyResult::ok();
}

PropertyResult
propParallelMatchesSerial(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    // Three points off one shared trace: the case's own config plus
    // two cheap on-line variants, so the pool actually interleaves.
    std::vector<runner::RunPoint> points;
    for (const PolicyKind policy :
         {c.cfg.policy, PolicyKind::LRU, PolicyKind::FIFO}) {
        runner::RunPoint point;
        point.label = runner::policyCliName(policy);
        point.trace = &c.trace;
        point.config = c.experimentConfig();
        point.config.policy = policy;
        points.push_back(std::move(point));
    }
    const std::vector<runner::RunOutcome> serial =
        runner::runAll(points, 1);
    const std::vector<runner::RunOutcome> parallel =
        runner::runAll(points, 3);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string diff =
            diffResults(serial[i].result, parallel[i].result);
        if (!diff.empty())
            return failMsg("--jobs 3 diverges from serial at point '",
                           points[i].label, "': ", diff);
    }
    return PropertyResult::ok();
}

PropertyResult
propPaShardMergeEquivalence(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    const std::vector<BlockAccess> accesses = expandTrace(c.trace);
    const std::size_t num_disks =
        std::max<std::size_t>(c.trace.numDisks(), 1);
    constexpr std::size_t kShards = 3;

    // Feed the interleaved stream into one global accumulator and,
    // simultaneously, into per-shard accumulators partitioned the way
    // the serve front-end stripes disks (disk mod shards). Cold-miss
    // flags come from an exact seen-set so both sides get identical
    // inputs.
    PaEpochStats global(num_disks);
    std::vector<PaEpochStats> shards(kShards, PaEpochStats(num_disks));
    std::set<uint64_t> seen;
    std::vector<Time> last(num_disks, -1.0);
    for (const BlockAccess &acc : accesses) {
        const std::size_t d = acc.block.disk;
        const bool cold = seen.insert(acc.block.packed()).second;
        PaEpochStats &local = shards[d % kShards];
        global.noteRequest(acc.block.disk, cold);
        local.noteRequest(acc.block.disk, cold);
        if (last[d] >= 0) {
            global.noteInterval(acc.block.disk, acc.time - last[d]);
            local.noteInterval(acc.block.disk, acc.time - last[d]);
        }
        last[d] = acc.time;
    }

    // Merge the shards forward and in reverse: commutativity demands
    // both orders equal the interleaved accumulator exactly.
    PaEpochStats fwd(num_disks);
    PaEpochStats rev(num_disks);
    for (std::size_t s = 0; s < kShards; ++s)
        fwd.merge(shards[s]);
    for (std::size_t s = kShards; s-- > 0;)
        rev.merge(shards[s]);

    PaParams params;
    params.epochLength = c.cfg.paEpoch;
    const std::pair<const PaEpochStats *, const char *> orders[] = {
        {&fwd, "forward"}, {&rev, "reverse"}};
    for (const auto &[mergedPtr, order] : orders) {
        const PaEpochStats &merged = *mergedPtr;
        for (std::size_t d = 0; d < num_disks; ++d) {
            const PaEpochStats::DiskEpoch &g =
                global.disk(static_cast<DiskId>(d));
            const PaEpochStats::DiskEpoch &m =
                merged.disk(static_cast<DiskId>(d));
            if (g.accesses != m.accesses || g.cold != m.cold)
                return failMsg(order, "-merged counters diverge on "
                               "disk ", d, ": ", m.accesses, "/",
                               m.cold, " vs global ", g.accesses, "/",
                               g.cold);
            if (g.intervals.counts() != m.intervals.counts())
                return failMsg(order, "-merged interval buckets "
                               "diverge on disk ", d);
            const PaClassification cg = classifyDiskEpoch(g, params);
            const PaClassification cm = classifyDiskEpoch(m, params);
            if (cg.decided != cm.decided ||
                cg.priority != cm.priority ||
                cg.haveQuantile != cm.haveQuantile ||
                cg.coldFraction != cm.coldFraction ||
                cg.quantile != cm.quantile)
                return failMsg(order, "-merged classification "
                               "diverges on disk ", d, ": priority ",
                               cm.priority, " quantile ", cm.quantile,
                               " vs ", cg.priority, " ", cg.quantile);
        }
    }
    return PropertyResult::ok();
}

PropertyResult
propServeMatchesReplay(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    ExperimentConfig cfg = c.experimentConfig();
    if (policyNeedsFuture(cfg.policy))
        cfg.policy = PolicyKind::LRU; // serve is on-line only
    const ExperimentResult ref = runExperiment(c.trace, cfg);

    serve::ServeConfig sc;
    sc.exp = cfg;
    sc.ringCapacity = 256;
    sc.batch = 16;
    for (const std::size_t threads : {1, 3}) {
        sc.shards = 1;
        sc.threads = threads;
        const serve::ServeResult sr =
            serve::ServeServer::replayTrace(c.trace, sc);
        const std::string diff = diffResults(sr.result, ref);
        if (!diff.empty())
            return failMsg("serve (1 shard, ", threads,
                           " threads) diverges from replay: ", diff);
        if (!sr.ledgerConserves)
            return failMsg("serve (1 shard, ", threads,
                           " threads) breaks ledger conservation "
                           "(max rel error ", sr.ledgerMaxRelError,
                           ")");
    }

    // Striping partitions the cache, so 2-shard results are their own
    // semantic — but they must be invariant to the worker count.
    if (cfg.cacheBlocks < 2)
        return PropertyResult::ok(); // a shard would get 0 blocks
    sc.shards = 2;
    sc.threads = 1;
    const serve::ServeResult one =
        serve::ServeServer::replayTrace(c.trace, sc);
    sc.threads = 3;
    const serve::ServeResult three =
        serve::ServeServer::replayTrace(c.trace, sc);
    const std::string diff = diffResults(one.result, three.result);
    if (!diff.empty())
        return failMsg("2-shard serve varies with thread count: ",
                       diff);
    if (!one.ledgerConserves || !three.ledgerConserves)
        return failMsg("2-shard serve breaks ledger conservation");

    // Disk-sharded replay computes the same partition (DESIGN.md 5h),
    // so it must land on the 2-stripe serve result bit for bit. With
    // one disk the replay clamps to one shard; serve does not.
    if (c.trace.numDisks() < 2)
        return PropertyResult::ok();
    const ScopedTempFile tmp("pacache-qa-", ".pct");
    {
        tracefmt::MemorySource src(c.trace);
        tracefmt::writePct(tmp.path(), src);
    }
    runner::ShardReplayOptions so;
    so.shards = 2;
    so.jobs = 1;
    const ExperimentResult sharded =
        runner::runShardedExperiment(tmp.path(), cfg, so);
    const std::string sdiff = diffResults(sharded, one.result);
    if (!sdiff.empty())
        return failMsg("2-shard replay diverges from 2-stripe serve: ",
                       sdiff);
    return PropertyResult::ok();
}

PropertyResult
propPctRoundTrip(const FuzzCase &c)
{
    const ScopedTempFile tmp("pacache-qa-", ".pct");
    {
        tracefmt::PctWriter writer(tmp.path());
        for (const TraceRecord &rec : c.trace)
            writer.append(rec);
        writer.finish();
    }

    auto compare = [&](tracefmt::TraceSource &src,
                       const char *reader) -> PropertyResult {
        TraceRecord rec;
        std::size_t i = 0;
        while (src.next(rec)) {
            if (i >= c.trace.size())
                return failMsg(reader, " yields ", i + 1,
                               "+ records, wrote ", c.trace.size());
            if (!(rec == c.trace[i]))
                return failMsg(reader, " record ", i,
                               " differs after round-trip: got '",
                               toString(rec), "', wrote '",
                               toString(c.trace[i]), "'");
            ++i;
        }
        if (i != c.trace.size())
            return failMsg(reader, " yields ", i, " records, wrote ",
                           c.trace.size());
        return PropertyResult::ok();
    };

    tracefmt::PctMmapSource mapped(tmp.path());
    return compare(mapped, "mmap reader");
}

uint64_t
hitsAt(const Trace &trace, std::size_t capacity, bool belady)
{
    const std::vector<BlockAccess> accesses = expandTrace(trace);
    LruPolicy lru;
    BeladyPolicy min;
    if (belady)
        min.prepareWindowed(WindowedFuture(accesses));
    ReplacementPolicy &policy =
        belady ? static_cast<ReplacementPolicy &>(min)
               : static_cast<ReplacementPolicy &>(lru);
    Cache cache(capacity, policy);
    for (std::size_t i = 0; i < accesses.size(); ++i)
        cache.access(accesses[i].block, accesses[i].time, i);
    return cache.stats().hits;
}

PropertyResult
propHitCountMonotone(const FuzzCase &c)
{
    // LRU and Belady are stack algorithms: a strictly larger cache
    // can never hit less often on the same stream.
    const std::size_t base = c.cfg.cacheBlocks > 0 ? c.cfg.cacheBlocks : 1;
    for (const bool belady : {false, true}) {
        uint64_t prev = 0;
        for (const std::size_t cap : {base, base * 2, base * 4}) {
            const uint64_t hits = hitsAt(c.trace, cap, belady);
            if (cap != base && hits < prev)
                return failMsg(belady ? "Belady" : "LRU",
                               " hits dropped from ", prev, " to ",
                               hits, " when the cache grew to ", cap,
                               " blocks");
            prev = hits;
        }
    }
    return PropertyResult::ok();
}

PropertyResult
propEnergyAccountingIdentity(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    const ExperimentConfig cfg = c.experimentConfig();
    const ExperimentResult res = runExperiment(c.trace, cfg);
    const CacheStats &cs = res.cache;

    if (cs.hits + cs.misses != cs.accesses)
        return failMsg("hits (", cs.hits, ") + misses (", cs.misses,
                       ") != accesses (", cs.accesses, ")");
    if (res.responses.count() != c.trace.size())
        return failMsg("responses.count() = ", res.responses.count(),
                       " but the trace has ", c.trace.size(),
                       " requests");

    auto relClose = [](double a, double b, double rel) {
        const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
        return std::fabs(a - b) <= rel * scale;
    };

    Energy perDiskSum = 0;
    for (const EnergyStats &d : res.perDisk)
        perDiskSum += d.total();
    if (!relClose(perDiskSum, res.energy.total(), 1e-9))
        return failMsg("sum of per-disk energy ", perDiskSum,
                       " != aggregate ", res.energy.total());

    const PowerModel pm = c.powerModel();
    for (std::size_t d = 0; d < res.perDisk.size(); ++d) {
        const EnergyStats &es = res.perDisk[d];
        Energy parts = es.serviceEnergy + es.spinUpEnergy +
                       es.spinDownEnergy;
        for (const Energy e : es.idleEnergyPerMode)
            parts += e;
        if (!relClose(parts, es.total(), 1e-9))
            return failMsg("disk ", d, ": component sum ", parts,
                           " != total() ", es.total());
        if (es.spinUps > es.spinDowns)
            return failMsg("disk ", d, ": ", es.spinUps,
                           " spin-ups exceed ", es.spinDowns,
                           " demotion steps");
        if (es.idleEnergyPerMode.size() != res.numModes)
            return failMsg("disk ", d, ": breakdown has ",
                           es.idleEnergyPerMode.size(),
                           " modes, model has ", res.numModes);
        // Oracle DPM prices a closed gap as idlePower * gap without
        // splitting out the transition residency, so the per-mode
        // residency-times-power identity only holds for the on-line
        // regimes (see DESIGN.md).
        if (cfg.dpm == DpmChoice::Oracle)
            continue;
        for (std::size_t m = 0; m < es.idleEnergyPerMode.size(); ++m) {
            const Energy fromTime =
                es.timePerMode[m] * pm.mode(m).idlePower;
            if (!relClose(fromTime, es.idleEnergyPerMode[m], 1e-6))
                return failMsg("disk ", d, " mode ", m, ": residency ",
                               es.timePerMode[m], "s x ",
                               pm.mode(m).idlePower, "W = ", fromTime,
                               "J but idleEnergyPerMode records ",
                               es.idleEnergyPerMode[m], "J");
        }
    }
    return PropertyResult::ok();
}

PropertyResult
propWtduRecoveryIdempotent(const FuzzCase &c)
{
    const std::size_t numDisks = std::max<std::size_t>(
        c.trace.numDisks(), 1);
    const std::size_t region =
        c.cfg.wtduRegionBlocks > 0 ? c.cfg.wtduRegionBlocks : 1;
    WtduLog log(numDisks, region);

    // Model of exactly-the-acknowledged-writes: everything appended
    // since a region's last retire must come back from recover(), in
    // append order, with the exact payload versions.
    std::vector<std::vector<std::pair<BlockNum, uint64_t>>> pending(
        numDisks);
    uint64_t version = 1;
    uint64_t steps = 0;
    for (const TraceRecord &rec : c.trace) {
        if (!rec.write)
            continue;
        if (steps++ == c.cfg.crashStep)
            break; // crash: everything after never happened
        if (log.full(rec.disk)) {
            // Data disk spun up and flushed; region retires.
            log.retire(rec.disk);
            pending[rec.disk].clear();
        }
        if (!log.append(rec.disk, rec.block, version))
            return failMsg("append refused for disk ", rec.disk,
                           " directly after a retire");
        pending[rec.disk].emplace_back(rec.block, version);
        ++version;
    }

    for (DiskId d = 0; d < numDisks; ++d) {
        const std::vector<WtduLog::Entry> first = log.recover(d);
        const std::vector<WtduLog::Entry> second = log.recover(d);
        if (first.size() != second.size())
            return failMsg("recover() is not idempotent on disk ", d,
                           ": ", first.size(), " then ", second.size(),
                           " entries");
        for (std::size_t i = 0; i < first.size(); ++i)
            if (first[i].block != second[i].block ||
                first[i].version != second[i].version)
                return failMsg("recover() is not idempotent on disk ",
                               d, " at entry ", i);

        if (first.size() != pending[d].size())
            return failMsg("disk ", d, ": recover() replays ",
                           first.size(), " entries, ",
                           pending[d].size(),
                           " writes were acknowledged since the last "
                           "retire");
        for (std::size_t i = 0; i < first.size(); ++i) {
            if (first[i].block != pending[d][i].first ||
                first[i].version != pending[d][i].second)
                return failMsg("disk ", d, " entry ", i,
                               ": recovered block ", first[i].block,
                               " v", first[i].version, ", expected ",
                               pending[d][i].first, " v",
                               pending[d][i].second);
        }
    }
    return PropertyResult::ok();
}

PropertyResult
propOpgIncrementalConsistent(const FuzzCase &c)
{
    const PowerModel pm = c.powerModel();
    OpgPolicy policy(pm, c.cfg.dpmKind, c.cfg.theta);
    const std::vector<BlockAccess> accesses = expandTrace(c.trace);
    policy.prepareWindowed(WindowedFuture(accesses));
    Cache cache(c.cfg.cacheBlocks > 0 ? c.cfg.cacheBlocks : 1, policy);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        cache.access(accesses[i].block, accesses[i].time, i);
        if (i % 64 == 63) {
            try {
                policy.validateInternalState(/*full=*/true);
            } catch (const std::logic_error &e) {
                return failMsg("OPG internal state invalid after "
                               "access ",
                               i, ": ", e.what());
            }
        }
    }
    try {
        policy.validateInternalState(/*full=*/true);
    } catch (const std::logic_error &e) {
        return failMsg("OPG internal state invalid after replay: ",
                       e.what());
    }
    return PropertyResult::ok();
}

PropertyResult
propLedgerConservation(const FuzzCase &c)
{
    if (c.trace.empty())
        return PropertyResult::ok();
    const ExperimentConfig cfg = c.experimentConfig();
    const ExperimentResult res = runExperiment(c.trace, cfg);

    for (std::size_t d = 0; d < res.perDisk.size(); ++d) {
        const double err = obs::ledgerRelError(res.perDisk[d]);
        if (err > obs::kLedgerConservationTol)
            return failMsg("disk ", d,
                           ": ledger rows diverge from the energy "
                           "totals by rel error ",
                           err, " (spinUps=", res.perDisk[d].spinUps,
                           ")");
    }
    const double aggErr = obs::ledgerMaxRelError(res.perDisk);
    if (aggErr > obs::kLedgerConservationTol)
        return failMsg("aggregate ledger rel error ", aggErr,
                       " exceeds ", obs::kLedgerConservationTol);
    // The run-level aggregate must also decompose: it is the same
    // EnergyStats sum the reports print.
    const double runErr = obs::ledgerRelError(res.energy);
    if (runErr > obs::kLedgerConservationTol)
        return failMsg("run aggregate ledger rel error ", runErr);
    return PropertyResult::ok();
}

PropertyResult
propHdrQuantileAccuracy(const FuzzCase &c)
{
    Rng rng(deriveSeed(c.seed, 0x4d78));
    const std::size_t n = 256 + rng.below(4096);
    std::vector<double> samples;
    samples.reserve(n);
    LogHistogram hist;
    for (std::size_t i = 0; i < n; ++i) {
        double v;
        switch (rng.below(3)) {
          case 0: v = rng.exponential(0.02); break;
          case 1: v = rng.pareto(1.5, 1e-4); break;
          default: v = rng.uniform(1e-6, 1e4); break;
        }
        // Keep clear of the histogram's under/overflow buckets, where
        // the relative-error bound intentionally does not hold.
        v = std::clamp(v, 1e-6, 1e9);
        samples.push_back(v);
        hist.record(v);
    }
    std::sort(samples.begin(), samples.end());

    if (hist.count() != n)
        return failMsg("histogram count ", hist.count(), " != ", n);

    double prev = 0.0;
    for (const double p :
         {0.0, 0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0}) {
        const std::size_t rank = std::min<std::size_t>(
            n, std::max<std::size_t>(
                   1, static_cast<std::size_t>(std::ceil(
                          p * static_cast<double>(n)))));
        const double exact = samples[rank - 1];
        const double got = hist.quantile(p);
        if (got < prev)
            return failMsg("quantile(", p, ") = ", got,
                           " is below quantile of the previous p (",
                           prev, ")");
        prev = got;
        const double err = std::fabs(got - exact) /
                           std::max(std::fabs(exact), 1e-300);
        if (err > LogHistogram::kMaxRelativeError)
            return failMsg("quantile(", p, ") = ", got,
                           " but exact nearest-rank is ", exact,
                           " (rel error ", err, " > ",
                           LogHistogram::kMaxRelativeError, ")");
    }
    if (hist.quantile(1.0) != samples.back())
        return failMsg("quantile(1.0) = ", hist.quantile(1.0),
                       " != exact max ", samples.back());
    return PropertyResult::ok();
}

PropertyResult
propDpmTwoCompetitive(const FuzzCase &c)
{
    const PowerModel pm = c.powerModel();

    const std::vector<Time> &th = pm.thresholds();
    for (std::size_t i = 1; i < th.size(); ++i)
        if (!(th[i - 1] < th[i]))
            return failMsg("thresholds not strictly ascending: t", i - 1,
                           " = ", th[i - 1], " >= t", i, " = ", th[i]);

    Rng rng(deriveSeed(c.seed, 0x2c0));
    for (int i = 0; i < 200; ++i) {
        const Time t = std::pow(10.0, rng.uniform(-3.0, 5.0));
        const Energy lower = pm.envelope(t);
        const Energy prac = pm.practicalEnergy(t);
        const double slack = 1e-9 * std::max(std::fabs(lower), 1.0);
        if (prac < lower - slack)
            return failMsg("practicalEnergy(", formatExact(t), ") = ",
                           prac, " beats the lower envelope ", lower);
        if (prac > 2 * lower + slack)
            return failMsg("practicalEnergy(", formatExact(t), ") = ",
                           prac, " exceeds twice the envelope ",
                           2 * lower, " (not 2-competitive)");
    }
    return PropertyResult::ok();
}

} // namespace

PropertyResult
checkPolicyDifferential(const FuzzCase &c, ReplacementPolicy &candidate,
                        ReplacementPolicy &reference)
{
    const Replay cand = replayPolicy(c, candidate);
    const Replay ref = replayPolicy(c, reference);

    const std::size_t n = std::min(cand.victims.size(),
                                   ref.victims.size());
    for (std::size_t i = 0; i < n; ++i)
        if (!(cand.victims[i] == ref.victims[i]))
            return failMsg(candidate.name(), " evicts ",
                           blockStr(cand.victims[i]), " at eviction ",
                           i, ", ", reference.name(), " evicts ",
                           blockStr(ref.victims[i]));
    if (cand.victims.size() != ref.victims.size())
        return failMsg(candidate.name(), " performs ",
                       cand.victims.size(), " evictions, ",
                       reference.name(), " performs ",
                       ref.victims.size());

    auto counter = [&](const char *what, uint64_t a,
                       uint64_t b) -> PropertyResult {
        if (a != b)
            return failMsg(candidate.name(), " ", what, " = ", a,
                           " but ", reference.name(), " ", what, " = ",
                           b);
        return PropertyResult::ok();
    };
    PropertyResult r = counter("hits", cand.stats.hits, ref.stats.hits);
    if (!r.passed)
        return r;
    r = counter("misses", cand.stats.misses, ref.stats.misses);
    if (!r.passed)
        return r;
    r = counter("evictions", cand.stats.evictions, ref.stats.evictions);
    if (!r.passed)
        return r;
    return counter("coldMisses", cand.stats.coldMisses,
                   ref.stats.coldMisses);
}

const std::vector<PropertyDef> &
allProperties()
{
    static const std::vector<PropertyDef> registry = {
        {"opg_matches_ref",
         "OPG fast path evicts and counts bit-identically to the "
         "naive reference written from the paper's definition",
         propOpgMatchesRef},
        {"belady_matches_ref",
         "Belady indexed-heap fast path is bit-identical to the "
         "naive furthest-next-use reference",
         propBeladyMatchesRef},
        {"energy_tables_match_legacy",
         "PiecewiseEnergy/envelope tables match the legacy per-call "
         "scans bitwise on fuzzed specs (incl. thresholds and +inf)",
         propEnergyTablesMatchLegacy},
        {"streaming_matches_materialized",
         "Streaming a trace through a TraceSource reproduces the "
         "materialized run's statistics exactly",
         propStreamingMatchesMaterialized},
        {"windowed_oracle_equivalence",
         "Off-line replay on windowed out-of-core future knowledge "
         "(fuzzed window sizes) is bit-identical to the "
         "materialized oracle",
         propWindowedOracleEquivalence},
        {"spilled_oracle_equivalence",
         "Replay with the spillable oracle store (materialized and "
         "windowed, budgets from one byte to SIZE_MAX) is "
         "bit-identical to the unbounded in-memory oracle",
         propSpilledOracleEquivalence},
        {"parallel_matches_serial",
         "runAll with --jobs N returns results identical to the "
         "serial run",
         propParallelMatchesSerial},
        {"pa_shard_merge_equivalence",
         "PA epoch stats merged from per-shard accumulators (either "
         "merge order) equal one accumulator fed the interleaved "
         "stream, classification included",
         propPaShardMergeEquivalence},
        {"serve_matches_replay",
         "The sharded concurrent server replays a trace with "
         "statistics identical to runExperiment at 1 shard for any "
         "thread count, and thread-invariant at 2 shards",
         propServeMatchesReplay},
        {"pct_roundtrip_identity",
         "Writing a trace to .pct and reading it back (mmap reader) "
         "is the identity",
         propPctRoundTrip},
        {"hit_count_monotone",
         "LRU and Belady hit counts never decrease when the cache "
         "grows (stack-algorithm inclusion)",
         propHitCountMonotone},
        {"energy_accounting_identity",
         "Energy breakdowns sum to totals, residency prices per-mode "
         "energy, and every request gets a response",
         propEnergyAccountingIdentity},
        {"wtdu_recovery_idempotent",
         "WTDU log recovery at a fuzzed crash point replays exactly "
         "the acknowledged writes, twice over",
         propWtduRecoveryIdempotent},
        {"opg_incremental_consistent",
         "OPG incremental bookkeeping matches a from-scratch penalty "
         "recomputation throughout replay",
         propOpgIncrementalConsistent},
        {"dpm_two_competitive",
         "Practical DPM stays within twice the Oracle envelope and "
         "its thresholds ascend",
         propDpmTwoCompetitive},
        {"energy_ledger_conservation",
         "Per-disk and aggregate energy ledgers reconcile with the "
         "energy totals within 1e-9 relative, spin-up counts exactly",
         propLedgerConservation},
        {"hdr_quantile_accuracy",
         "LogHistogram quantiles stay within the documented relative "
         "error of exact nearest-rank on fuzzed mixed samples",
         propHdrQuantileAccuracy},
        {"wtdu_crash_durability",
         "A power failure injected at the case's generated crash site "
         "loses no acknowledged write and resurrects no unissued one "
         "after WTDU recovery over the surviving log image",
         propWtduCrashDurability},
        {"wtdu_crash_ledger",
         "Per-disk energy ledgers still reconcile after a crash is "
         "injected, the queue drained, and accounting finalized",
         propWtduCrashLedger},
        {"wtdu_recovery_idempotent_under_crash",
         "WTDU recovery crashed mid-replay and re-run applies exactly "
         "the block versions a single uninterrupted pass applies",
         propWtduRecoveryIdempotentUnderCrash},
        {"serve_crash_shutdown_recovery",
         "A crash at serve-mode shutdown leaves every stripe's WTDU "
         "log bit-identical to replay mode at 1 shard, recovery "
         "included",
         propServeCrashShutdownRecovery},
    };
    return registry;
}

const PropertyDef *
findProperty(const std::string &name)
{
    for (const PropertyDef &prop : allProperties())
        if (name == prop.name)
            return &prop;
    return nullptr;
}

PropertyResult
runProperty(const PropertyDef &prop, const FuzzCase &c)
{
    try {
        return prop.check(c);
    } catch (const std::exception &e) {
        return PropertyResult::fail(std::string("exception: ") +
                                    e.what());
    }
}

} // namespace pacache::qa
