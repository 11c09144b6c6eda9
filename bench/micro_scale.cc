/**
 * @file
 * Out-of-core scale micro-benchmark: stream-generate a scaled OLTP
 * trace to .pct (never materialized), replay it with the windowed
 * off-line oracle (OPG on WindowedFuture) under a fixed oracle memory
 * budget, replay it disk-sharded, shards in parallel, under
 * the same budget, and only then run the unbounded in-memory variants
 * — tracking throughput plus peak RSS (VmHWM) at every stage. The
 * trace is 10x the future-knowledge window, so a bounded peak RSS is
 * direct evidence the oracle really runs out-of-core.
 *
 * Phase order matters: VmHWM is a process-wide high-water mark and
 * never goes down, so the budgeted phases run FIRST and the gated
 * footprint ceiling is sampled before any unbounded replay runs. The
 * unbounded phases then serve two purposes: their fingerprints must
 * equal the budgeted ones bit for bit (spilling moves bytes, never
 * values), and their throughput prices what the budget costs.
 *
 * BENCH_scale.json carries two gated metrics:
 *   max_peak_rss_mb          process-wide VmHWM in MiB after the
 *                            budgeted phases; "max_"-prefixed, so
 *                            tools/bench_compare.py gates it as a
 *                            CEILING (higher is worse), and
 *                            tools/check.sh adds a hard absolute
 *                            ceiling on top of the baseline.
 *   budget_throughput_ratio  budgeted / unbounded windowed-replay
 *                            throughput; check.sh holds it to the
 *                            >= 0.8 acceptance floor.
 * plus informational (un-gated, "info_"-prefixed) throughput numbers
 * and the unbounded peak RSS, which are machine-specific.
 *
 * Equivalence gates built into the timing loop:
 *   - every budgeted windowed repetition must be bit-identical;
 *   - the budgeted sharded replay must be bit-identical at --jobs 1
 *     and at the full worker count;
 *   - the unbounded windowed and sharded replays must reproduce the
 *     budgeted fingerprints exactly.
 *
 * PACACHE_SCALE_REQUESTS / PACACHE_SCALE_DISKS resize the workload
 * (defaults: 8000000 x 64); PACACHE_SCALE_BUDGET_MB sets the oracle
 * memory budget in MiB (default 64); PACACHE_BENCH_REPS overrides
 * the repetition count (default 3).
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include <stdlib.h>
#include <unistd.h>

#include "bench_report.hh"
#include "core/experiment.hh"
#include "runner/shard_replay.hh"
#include "trace/stream_gen.hh"
#include "tracefmt/pct.hh"
#include "util/mem.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

uint64_t
envUint(const char *name, uint64_t fallback)
{
    if (const char *env = std::getenv(name)) {
        const long long v = std::atoll(env);
        if (v > 0)
            return static_cast<uint64_t>(v);
    }
    return fallback;
}

double
mib(uint64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Unlinked-on-exit temporary .pct path. */
struct TempPct
{
    std::string path;

    TempPct()
    {
        const char *dir = std::getenv("TMPDIR");
        std::string templ = std::string(dir && *dir ? dir : "/tmp") +
                            "/pacache-scale-XXXXXX.pct";
        const int fd = mkstemps(templ.data(), 4);
        if (fd < 0) {
            std::cerr << "FATAL: cannot create temp file " << templ
                      << '\n';
            std::exit(1);
        }
        close(fd);
        path = templ;
    }

    ~TempPct() { unlink(path.c_str()); }
};

/** The replay outputs that must not vary across reps or job counts. */
struct Fingerprint
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    Energy totalEnergy = 0;

    Fingerprint() = default;

    explicit Fingerprint(const ExperimentResult &r)
        : hits(r.cache.hits), misses(r.cache.misses),
          evictions(r.cache.evictions), totalEnergy(r.totalEnergy)
    {
    }

    bool
    operator==(const Fingerprint &o) const
    {
        return hits == o.hits && misses == o.misses &&
               evictions == o.evictions &&
               totalEnergy == o.totalEnergy; // exact, not near
    }
};

/**
 * Best-of-N windowed replay; every repetition must reproduce the
 * first repetition's fingerprint. Returns the best seconds.
 */
double
timeWindowed(const std::string &pctPath, const ExperimentConfig &cfg,
             uint64_t requests, unsigned reps, const char *what,
             Fingerprint &fp)
{
    tracefmt::PctReadOptions ropts;
    // Checksum verification off: it is a separate sequential pass and
    // this benchmark times the replay itself.
    ropts.verifyChecksum = false;
    double best = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        tracefmt::PctMmapSource src(pctPath, ropts);
        const auto t0 = std::chrono::steady_clock::now();
        const ExperimentResult r = runExperiment(src, cfg);
        const double sec = secondsSince(t0);
        const Fingerprint now(r);
        if (rep == 0) {
            fp = now;
        } else if (!(now == fp)) {
            std::cerr << "FATAL: " << what
                      << " replay not deterministic across "
                         "repetitions\n";
            std::exit(1);
        }
        if (rep == 0 || sec < best)
            best = sec;
        std::cout << "  " << what << " rep " << rep << ": "
                  << fmt(static_cast<double>(requests) / sec / 1e3, 1)
                  << " k req/s\n";
    }
    return best;
}

} // namespace

int
main()
{
    std::cout << "=== micro_scale: out-of-core replay at scale ===\n\n";
    const uint64_t requests =
        envUint("PACACHE_SCALE_REQUESTS", 8000000);
    const uint32_t disks = static_cast<uint32_t>(
        envUint("PACACHE_SCALE_DISKS", 64));
    const uint64_t budgetMb = envUint("PACACHE_SCALE_BUDGET_MB", 64);
    const unsigned reps =
        static_cast<unsigned>(envUint("PACACHE_BENCH_REPS", 3));
    const unsigned jobs = benchsupport::jobsFromEnv();

    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.cacheBlocks = 1 << 16;
    // Trace = 10x window: the oracle must page future knowledge.
    cfg.windowAccesses =
        static_cast<std::size_t>(std::max<uint64_t>(requests / 10, 1));

    std::cout << requests << " requests, " << disks
              << " disks (scaled oltp), window " << cfg.windowAccesses
              << " accesses, budget " << budgetMb << " MiB, " << reps
              << " reps\n\n";

    benchsupport::BenchReport report("scale", jobs);
    TempPct pct;

    // --- generate: stream straight to .pct, no Trace in memory ----
    double genSec;
    {
        StreamingSyntheticSource gen(scaledOltpStreams(disks), 0.0, 42,
                                     requests);
        const auto t0 = std::chrono::steady_clock::now();
        const tracefmt::PctInfo info = tracefmt::writePct(pct.path, gen);
        genSec = secondsSince(t0);
        if (info.records != requests) {
            std::cerr << "FATAL: generator produced "
                      << info.records << " of " << requests
                      << " records\n";
            return 1;
        }
    }
    const double genRps = static_cast<double>(requests) / genSec;
    report.addRun("scale/generate", genSec * 1e3, requests);
    report.metric("info_gen_krps", genRps / 1e3);
    std::cout << "generate: " << fmt(genRps / 1e6, 3)
              << " M req/s, peak RSS " << fmt(mib(peakRssBytes()), 1)
              << " MiB\n";

    // --- budgeted windowed OPG replay (gated footprint) ------------
    ExperimentConfig bcfg = cfg;
    bcfg.oracleMemBudget =
        static_cast<std::size_t>(budgetMb) << 20;
    Fingerprint fpBudget;
    const double budgetSec = timeWindowed(
        pct.path, bcfg, requests, reps, "budgeted windowed opg",
        fpBudget);
    const double budgetRps =
        static_cast<double>(requests) / budgetSec;
    report.addRun("scale/opg_windowed_budget", budgetSec * 1e3,
                  requests);
    report.metric("info_budget_mb", static_cast<double>(budgetMb));
    report.metric("info_budget_windowed_krps", budgetRps / 1e3);
    std::cout << "budgeted windowed opg: " << fmt(budgetRps / 1e3, 1)
              << " k req/s best, peak RSS "
              << fmt(mib(peakRssBytes()), 1) << " MiB\n";

    // --- budgeted sharded replay: jobs=1 must equal jobs=N ---------
    runner::ShardReplayOptions sopts;
    sopts.shards = 8;
    sopts.jobs = 1;
    Fingerprint shardFp;
    {
        const ExperimentResult r =
            runner::runShardedExperiment(pct.path, bcfg, sopts);
        shardFp = Fingerprint(r);
    }
    sopts.jobs = jobs;
    double shardBudgetSec = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const ExperimentResult r =
            runner::runShardedExperiment(pct.path, bcfg, sopts);
        const double sec = secondsSince(t0);
        if (!(Fingerprint(r) == shardFp)) {
            std::cerr << "FATAL: budgeted sharded replay at jobs="
                      << jobs << " differs from jobs=1\n";
            return 1;
        }
        if (rep == 0 || sec < shardBudgetSec)
            shardBudgetSec = sec;
        std::cout << "  budgeted sharded opg rep " << rep << ": "
                  << fmt(static_cast<double>(requests) / sec / 1e3, 1)
                  << " k req/s\n";
    }
    const double shardBudgetRps =
        static_cast<double>(requests) / shardBudgetSec;
    report.addRun("scale/opg_sharded_budget", shardBudgetSec * 1e3,
                  requests);
    report.metric("info_budget_sharded_krps", shardBudgetRps / 1e3);

    // --- the gated ceiling: sampled BEFORE any unbounded phase -----
    // VmHWM is monotone, so this is exactly the high-water mark of
    // generation plus every budgeted replay.
    const double peakMb = mib(peakRssBytes());
    report.metric("max_peak_rss_mb", peakMb);
    std::cout << "budgeted sharded opg (" << sopts.shards
              << " shards): " << fmt(shardBudgetRps / 1e3, 1)
              << " k req/s best\npeak RSS " << fmt(peakMb, 1)
              << " MiB across all budgeted phases (gated)\n";

    // --- unbounded windowed replay: prices the budget --------------
    Fingerprint fpFree;
    const double freeSec = timeWindowed(
        pct.path, cfg, requests, reps, "unbounded windowed opg",
        fpFree);
    if (!(fpFree == fpBudget)) {
        std::cerr << "FATAL: budgeted windowed replay differs from "
                     "the unbounded replay\n";
        return 1;
    }
    const double freeRps = static_cast<double>(requests) / freeSec;
    report.addRun("scale/opg_windowed", freeSec * 1e3, requests);
    report.metric("info_windowed_krps", freeRps / 1e3);
    const double ratio = budgetRps / freeRps;
    report.metric("budget_throughput_ratio", ratio);
    std::cout << "unbounded windowed opg: " << fmt(freeRps / 1e3, 1)
              << " k req/s best; budgeted/unbounded = "
              << fmt(ratio, 3) << '\n';

    // --- unbounded sharded replay ----------------------------------
    double shardSec = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const ExperimentResult r =
            runner::runShardedExperiment(pct.path, cfg, sopts);
        const double sec = secondsSince(t0);
        if (!(Fingerprint(r) == shardFp)) {
            std::cerr << "FATAL: unbounded sharded replay differs "
                         "from the budgeted sharded replay\n";
            return 1;
        }
        if (rep == 0 || sec < shardSec)
            shardSec = sec;
        std::cout << "  unbounded sharded opg rep " << rep << ": "
                  << fmt(static_cast<double>(requests) / sec / 1e3, 1)
                  << " k req/s\n";
    }
    const double shardRps = static_cast<double>(requests) / shardSec;
    report.addRun("scale/opg_sharded", shardSec * 1e3, requests);
    report.metric("info_sharded_krps", shardRps / 1e3);
    report.metric("info_peak_rss_unbounded_mb", mib(peakRssBytes()));
    std::cout << "unbounded sharded opg: " << fmt(shardRps / 1e3, 1)
              << " k req/s best, unbounded peak RSS "
              << fmt(mib(peakRssBytes()), 1) << " MiB\n";

    std::cout << "\nwrote " << report.write() << '\n';
    return 0;
}
