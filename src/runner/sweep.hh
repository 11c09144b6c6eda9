/**
 * @file
 * Parallel experiment sweeps. A SweepSpec names a cartesian grid of
 * experiment knobs (workloads x policies x cache sizes x DPM regimes
 * x write policies); expanding it yields a flat, deterministically
 * ordered list of RunPoints. runAll() executes the points with
 * parallelFor, sharing one immutable in-memory Trace per workload
 * across all threads, and returns results in spec order —
 * the output is byte-identical no matter how many jobs ran it,
 * because each point writes into its pre-assigned slot and the
 * simulation itself has no cross-run shared mutable state.
 */

#ifndef PACACHE_RUNNER_SWEEP_HH
#define PACACHE_RUNNER_SWEEP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "trace/trace.hh"

namespace pacache
{

class JsonValue;
class LogHistogram;

namespace obs
{
class MetricRegistry;
}

namespace runner
{

/** Strict name -> enum parsers (fatal on unknown spellings). */
PolicyKind parsePolicyKind(const std::string &name);
DpmChoice parseDpmChoice(const std::string &name);
WritePolicy parseWritePolicy(const std::string &name);

/** Display names matching the parsers' spellings. */
const char *policyCliName(PolicyKind kind);
const char *dpmChoiceName(DpmChoice dpm);
const char *writePolicyCliName(WritePolicy policy);

/** One fully-configured experiment over a shared trace. */
struct RunPoint
{
    std::string label;          //!< e.g. "oltp/pa-lru/c4096/practical/wb"
    const Trace *trace = nullptr; //!< shared, immutable, not owned
    ExperimentConfig config;
};

/** A RunPoint's result plus its cost accounting. */
struct RunOutcome
{
    std::string label;
    ExperimentResult result;
    double wallMs = 0;          //!< host wall-clock for this run
    double requestsPerSec = 0;  //!< trace records / host second
};

/**
 * A cartesian sweep over experiment knobs. Every axis must be
 * non-empty; the expansion order is fixed (trace-major, then policy,
 * cache size, DPM, write policy) so run indices are stable across
 * job counts and hosts.
 */
struct SweepSpec
{
    std::string name = "sweep";
    std::vector<std::string> workloads; //!< "oltp" | "cello" | "opg-showcase"
    std::vector<PolicyKind> policies;
    std::vector<std::size_t> cacheBlocks;
    std::vector<DpmChoice> dpms;
    std::vector<WritePolicy> writePolicies;
    /** Workload duration override in seconds; <= 0 keeps defaults. */
    double duration = 0;
    /**
     * Oracle replay-state budget in MiB, applied to every OPG point
     * (spillable oracle tier; bit-identical results). 0 = unbounded.
     */
    std::size_t oracleMemBudgetMb = 0;

    std::size_t points() const
    {
        return workloads.size() * policies.size() * cacheBlocks.size() *
               dpms.size() * writePolicies.size();
    }

    /**
     * Parse a spec document, e.g.
     * @code{.json}
     * {"name": "fig6", "workloads": ["oltp"],
     *  "policies": ["lru", "pa-lru", "opg"],
     *  "cache_blocks": [1024, 4096],
     *  "dpms": ["practical"], "write_policies": ["wb"],
     *  "duration": 600}
     * @endcode
     * Missing axes default to a single sensible value; unknown keys
     * are fatal so typos cannot silently shrink a sweep.
     */
    static SweepSpec fromJson(const JsonValue &doc);
    static SweepSpec fromJsonText(std::string_view text);
};

/**
 * Materialized workloads + expanded points for a spec. Traces are
 * built once and shared read-only by every run that uses them.
 */
class SweepPlan
{
  public:
    explicit SweepPlan(const SweepSpec &spec);

    const std::vector<RunPoint> &points() const { return runPoints; }

  private:
    /** One slot per distinct workload name, address-stable. */
    std::vector<Trace> traces;
    std::vector<RunPoint> runPoints;
};

/**
 * Run every point on @p jobs workers (0 = hardware concurrency) and
 * return outcomes in point order. When @p metrics is non-null, each
 * run's wall clock and throughput are recorded as gauges
 * "runner.<label>.wall_ms" / "runner.<label>.requests_per_sec", plus
 * sweep totals under "runner.sweep.*". The cross-run distributions
 * "runner.sweep.dist.*" are computed from the outcome slots after
 * every run has finished, so they are byte-identical at any @p jobs.
 */
std::vector<RunOutcome> runAll(const std::vector<RunPoint> &points,
                               unsigned jobs,
                               obs::MetricRegistry *metrics = nullptr);

/**
 * Emit @p hist as "<prefix>.count/.mean/.p50/.p95/.p99/.min/.max"
 * gauges, using only bucket-derived statistics (independent of the
 * order the samples were recorded in).
 */
void recordDistGauges(obs::MetricRegistry &registry,
                      const std::string &prefix,
                      const LogHistogram &hist);

/** Expand + run a spec in one call. */
std::vector<RunOutcome> runSweep(const SweepSpec &spec, unsigned jobs,
                                 obs::MetricRegistry *metrics = nullptr);

} // namespace runner
} // namespace pacache

#endif // PACACHE_RUNNER_SWEEP_HH
