/**
 * @file
 * Off-line oracle micro-benchmark: replays the fig6-scale OLTP
 * workload (21 disks, 2 hours, 1024-block cache) through LRU and
 * through the indexed-heap/ordered-set OPG (Oracle and Practical
 * pricing) and Belady, as interleaved best-of-N replays of the same
 * trace, and reports each oracle's replay time as a ratio to LRU's.
 * LRU is the yardstick because it runs the same Cache on the same
 * trace with no future knowledge at all, so the ratio is
 * host-normalized and moves only when the oracle itself does.
 *
 * Before the ratios count, every oracle is checked once, outside the
 * timed repetitions, against NaiveOracle (OPG and MIN written from
 * their definitions): same eviction sequence, same counters, exactly
 * equal priced schedule energy. The check's wall time is reported. A
 * pricing-only panel times the precomputed envelope /
 * practical-energy fast paths against the legacy scans on a dense gap
 * grid, its four legs interleaved rep by rep like the replays.
 *
 * BENCH_micro_opg.json carries every timed run plus the ratios:
 * max_opg_lru_ratio (the slower OPG over LRU) and
 * max_belady_lru_ratio are ceilings, the pricing speedups floors;
 * tools/bench_compare.py gates them against the committed baseline.
 * PACACHE_BENCH_REPS overrides the repetition count (default 5; every
 * rep re-checks determinism).
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.hh"
#include "cache/belady.hh"
#include "cache/cache.hh"
#include "cache/lru.hh"
#include "core/opg.hh"
#include "core/optimal.hh"
#include "qa/naive_oracle.hh"
#include "trace/workloads.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

constexpr std::size_t kCacheBlocks = 1024;

unsigned
repsFromEnv()
{
    if (const char *env = std::getenv("PACACHE_BENCH_REPS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 5;
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One replay's identity: eviction order, counters, priced energy. */
struct ReplayFingerprint
{
    uint64_t evictionHash = 1469598103934665603ull; // FNV offset
    uint64_t evictions = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    Energy scheduleEnergyJ = 0;

    void
    addVictim(const BlockId &b)
    {
        ++evictions;
        for (uint64_t word :
             {static_cast<uint64_t>(b.disk), b.block}) {
            evictionHash ^= word;
            evictionHash *= 1099511628211ull;
        }
    }

    bool
    operator==(const ReplayFingerprint &o) const
    {
        return evictionHash == o.evictionHash &&
               evictions == o.evictions && hits == o.hits &&
               misses == o.misses &&
               scheduleEnergyJ == o.scheduleEnergyJ; // exact, not near
    }
};

struct ReplayTiming
{
    double bestMs = 0;
    ReplayFingerprint fp;
};

/**
 * One timed replay of @p accesses through @p policy. An oracle's
 * arming (the in-memory future build, or the naive reference's
 * backward pass) is timed with its replay.
 */
template <typename Policy>
std::pair<double, ReplayFingerprint>
replayOnce(const std::vector<BlockAccess> &accesses,
           const SchedulePricing &pricing, Policy &&policy)
{
    ReplayFingerprint fp;
    Cache cache(kCacheBlocks, policy);
    std::vector<std::vector<Time>> missTimes;

    const double t0 = nowMs();
    if constexpr (requires { policy.prepareWindowed(WindowedFuture{}); })
        policy.prepareWindowed(WindowedFuture(accesses));
    else if constexpr (requires { policy.prepare(accesses); })
        policy.prepare(accesses);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        const auto r =
            cache.access(accesses[i].block, accesses[i].time, i);
        if (r.evicted)
            fp.addVictim(r.victim);
        if (!r.hit) {
            const DiskId d = accesses[i].block.disk;
            if (d >= missTimes.size())
                missTimes.resize(d + 1);
            missTimes[d].push_back(accesses[i].time);
        }
    }
    const double ms = nowMs() - t0;

    fp.hits = cache.stats().hits;
    fp.misses = cache.stats().misses;
    fp.scheduleEnergyJ = scheduleEnergy(missTimes, pricing);
    return {ms, fp};
}

void
foldRep(ReplayTiming &out, double ms, const ReplayFingerprint &fp,
        unsigned rep)
{
    if (rep == 0) {
        out.bestMs = ms;
        out.fp = fp;
        return;
    }
    out.bestMs = std::min(out.bestMs, ms);
    if (!(fp == out.fp)) {
        std::cerr << "FATAL: replay not deterministic across "
                     "repetitions\n";
        std::exit(1);
    }
}

bool
checkIdentical(const char *what, const ReplayFingerprint &fast,
               const ReplayFingerprint &ref)
{
    if (fast == ref)
        return true;
    std::cerr << "FATAL: " << what
              << " fast path diverges from the naive reference:\n"
              << "  evictions " << fast.evictions << " vs "
              << ref.evictions << "\n  eviction hash "
              << fast.evictionHash << " vs " << ref.evictionHash
              << "\n  misses " << fast.misses << " vs " << ref.misses
              << "\n  energy " << fast.scheduleEnergyJ << " vs "
              << ref.scheduleEnergyJ << '\n';
    return false;
}

/** One pricing function's best time and its sum over the grid. */
struct PricingTiming
{
    double bestMs = 0;
    Energy sum = 0;
};

/**
 * One rep of the pricing panel: sum a pricing function over a dense
 * grid of gap lengths and fold the time into @p t.
 */
template <typename Fn>
void
timePricing(const PowerModel &pm, Fn fn, PricingTiming &t, unsigned rep)
{
    constexpr int kGaps = 2000000;
    const Time horizon = pm.thresholds().empty()
        ? 100.0
        : pm.thresholds().back() * 4;
    Energy sum = 0;
    const double t0 = nowMs();
    for (int i = 0; i < kGaps; ++i)
        sum += fn(pm, horizon * i / kGaps);
    const double ms = nowMs() - t0;
    t.bestMs = rep == 0 ? ms : std::min(t.bestMs, ms);
    t.sum = sum;
}

} // namespace

int
main()
{
    std::cout << "=== micro_opg: off-line oracle fast path ===\n\n";
    const unsigned reps = repsFromEnv();

    const Trace trace = makeOltpTrace();
    const auto accesses = expandTrace(trace);
    const PowerModel pm;
    const SchedulePricing pricing{&pm, 0.05,
                                  accesses.back().time + 1};
    std::cout << "OLTP fig6 scale: " << accesses.size()
              << " block accesses, " << trace.numDisks()
              << " disks, cache " << kCacheBlocks << " blocks, "
              << reps << " reps\n\n";

    benchsupport::BenchReport report("micro_opg",
                                     benchsupport::jobsFromEnv());

    // One rep replays every policy once, round robin, so a load burst
    // that spans a rep inflates LRU and the oracles alike instead of
    // whichever happened to be running.
    ReplayTiming lru, opgOracle, opgPractical, belady;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto [lms, lfp] = replayOnce(accesses, pricing, LruPolicy());
        foldRep(lru, lms, lfp, rep);
        const auto [oms, ofp] = replayOnce(
            accesses, pricing, OpgPolicy(pm, DpmKind::Oracle));
        foldRep(opgOracle, oms, ofp, rep);
        const auto [pms, pfp] = replayOnce(
            accesses, pricing, OpgPolicy(pm, DpmKind::Practical));
        foldRep(opgPractical, pms, pfp, rep);
        const auto [bms, bfp] =
            replayOnce(accesses, pricing, BeladyPolicy());
        foldRep(belady, bms, bfp, rep);
    }

    // The equivalence check: once per oracle, untimed (& runs all
    // three, so every divergence is reported).
    const double checkStart = nowMs();
    const auto naive = [&](NaiveOracle ref) {
        return replayOnce(accesses, pricing, ref).second;
    };
    bool ok = checkIdentical("OPG/oracle", opgOracle.fp,
                             naive(NaiveOracle(pm, DpmKind::Oracle))) &
              checkIdentical("OPG/practical", opgPractical.fp,
                             naive(NaiveOracle(pm, DpmKind::Practical))) &
              checkIdentical("Belady", belady.fp, naive(NaiveOracle()));
    const double checkMs = nowMs() - checkStart;

    TextTable table;
    table.header({"Replay", "best (ms)", "/ LRU"});
    struct Row
    {
        const char *name;
        const ReplayTiming &t;
    };
    for (const Row r : {Row{"LRU", lru}, Row{"OPG/oracle", opgOracle},
                        Row{"OPG/practical", opgPractical},
                        Row{"Belady", belady}}) {
        table.row({r.name, fmt(r.t.bestMs, 1),
                   fmt(r.t.bestMs / lru.bestMs, 2)});
        report.addRun(r.name, r.t.bestMs, accesses.size());
    }
    table.print(std::cout);
    std::cout << '\n';
    const double opgRatio =
        std::max(opgOracle.bestMs, opgPractical.bestMs) / lru.bestMs;
    report.metric("max_opg_lru_ratio", opgRatio);
    report.metric("max_belady_lru_ratio", belady.bestMs / lru.bestMs);
    report.metric("info_naive_check_ms", checkMs);

    // Pricing-only panel: precomputed curves vs legacy scans.
    TextTable ptable;
    ptable.header({"Pricing", "ref (ms)", "fast (ms)", "speedup"});
    // Like the replays, one rep times every leg once, so a load burst
    // lands on the fast curves and the legacy scans alike.
    PricingTiming envFast, envRef, pracFast, pracRef;
    for (unsigned rep = 0; rep < reps; ++rep) {
        timePricing(pm, [](auto &m, Time t) { return m.envelope(t); },
                    envFast, rep);
        timePricing(pm, [](auto &m, Time t) { return m.envelopeRef(t); },
                    envRef, rep);
        timePricing(
            pm, [](auto &m, Time t) { return m.practicalEnergy(t); },
            pracFast, rep);
        timePricing(
            pm, [](auto &m, Time t) { return m.practicalEnergyRef(t); },
            pracRef, rep);
    }
    if (envFast.sum != envRef.sum || pracFast.sum != pracRef.sum) {
        std::cerr << "FATAL: pricing fast path diverges from the "
                     "legacy scan\n";
        ok = false;
    }
    ptable.row({"envelope", fmt(envRef.bestMs, 1),
                fmt(envFast.bestMs, 1),
                fmt(envRef.bestMs / envFast.bestMs, 2)});
    ptable.row({"practical", fmt(pracRef.bestMs, 1),
                fmt(pracFast.bestMs, 1),
                fmt(pracRef.bestMs / pracFast.bestMs, 2)});
    ptable.print(std::cout);
    std::cout << '\n';
    report.addRun("pricing/envelope/fast", envFast.bestMs, 2000000);
    report.addRun("pricing/envelope/ref", envRef.bestMs, 2000000);
    report.addRun("pricing/practical/fast", pracFast.bestMs, 2000000);
    report.addRun("pricing/practical/ref", pracRef.bestMs, 2000000);
    report.metric("envelope_pricing_speedup",
                  envRef.bestMs / envFast.bestMs);
    report.metric("practical_pricing_speedup",
                  pracRef.bestMs / pracFast.bestMs);

    std::cout << "OPG replay / LRU replay (slower OPG): "
              << fmt(opgRatio, 2) << "x\n";
    std::cout << (ok ? "naive reference check: byte-identical"
                     : "naive reference check: DIVERGED")
              << " (" << fmt(checkMs / 1000, 1) << " s)\n";

    const std::string path = report.write();
    std::cout << "report: " << path << '\n';
    return ok ? 0 : 1;
}
