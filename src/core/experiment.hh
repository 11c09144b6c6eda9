/**
 * @file
 * Turnkey experiment runner: build the whole simulated storage
 * system (power model, DPM, disks, cache, replacement policy, write
 * policy, optional PA classifier and WTDU log device) for a trace,
 * run it, and collect every statistic the paper's figures need.
 */

#ifndef PACACHE_CORE_EXPERIMENT_HH
#define PACACHE_CORE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/future_window.hh"
#include "core/pa_classifier.hh"
#include "core/storage_system.hh"
#include "disk/power_model.hh"
#include "disk/service_model.hh"
#include "stats/energy_stats.hh"
#include "stats/response_stats.hh"
#include "trace/trace.hh"

namespace pacache
{

namespace tracefmt
{
class TraceSource;
}

/** Replacement policies selectable by the runner. */
enum class PolicyKind
{
    LRU,
    FIFO,
    CLOCK,
    ARC,
    MQ,
    LIRS,
    Belady,        //!< off-line MIN
    OPG,           //!< off-line power-aware greedy
    PALRU,         //!< on-line power-aware LRU
    PAARC,         //!< PA wrapper around ARC
    PALIRS,        //!< PA wrapper around LIRS
    InfiniteCache, //!< no evictions (cold misses only)
};

/** DPM regime for the run. */
enum class DpmChoice
{
    AlwaysOn,  //!< disks never leave full speed
    Practical, //!< on-line threshold DPM (2-competitive)
    Adaptive,  //!< per-disk adaptive spin-down timeout
    Oracle,    //!< off-line envelope pricing, just-in-time spin-up
};

/** Full experiment configuration. */
struct ExperimentConfig
{
    PolicyKind policy = PolicyKind::LRU;
    DpmChoice dpm = DpmChoice::Practical;
    std::size_t cacheBlocks = 32768; //!< 128 MiB of 4 KiB blocks
    StorageConfig storage;
    DiskSpec spec = DiskSpec::ultrastar36z15();
    ServiceParams service;
    DiskOptions disk; //!< e.g. DRPM serve-at-any-speed (option 1)
    PaParams pa;           //!< intervalThreshold <= 0: auto from model
    Energy opgTheta = -1;  //!< < 0: auto (first NAP transition energy)

    /**
     * Look-ahead window, in accesses, of the off-line policies'
     * (Belady/OPG) future knowledge on the streaming overload, which
     * always builds it out of core: a backward pass over the
     * source's .pct file (non-.pct sources are spilled to a temporary
     * .pct first), so peak RSS is bounded by the window instead of
     * the trace length. 0 = WindowedFuture's default window. Results
     * are bit-identical to the in-memory overload for any value; that
     * overload builds the whole future in memory and ignores this.
     */
    std::size_t windowAccesses = 0;

    /**
     * Byte budget for the oracle's in-RAM replay state (OPG only).
     * 0 = unbounded (the historical in-memory containers). > 0 runs
     * the spillable oracle tier: the whole budget bounds the SpillPool
     * behind the deterministic-miss sets and next-use indexes, on the
     * materialized and the windowed path alike, with overflow pages
     * spilled to unlinked temporary files. Results are bit-identical
     * to the unbounded path for any value. Belady keeps O(capacity)
     * state and ignores the budget.
     */
    std::size_t oracleMemBudget = 0;

    /**
     * Observability fan-out; null disables instrumentation. SimStack
     * wires it into the disks, cache, classifier and storage system,
     * installs the timeline snapshot callback, and fills the final
     * summary gauges into the attached metric registry.
     */
    obs::SimObserver *observer = nullptr;

    /**
     * Scoped wall-clock profiler; null disables phase timing. SimStack
     * times the oracle precompute, replay and drain phases with it.
     */
    obs::Profiler *profiler = nullptr;
};

/** Everything a run produces. */
struct ExperimentResult
{
    std::string policyName;
    CacheStats cache;
    EnergyStats energy;               //!< all data disks combined
    std::vector<EnergyStats> perDisk; //!< per data disk
    ResponseStats responses;          //!< system-level (hits included)
    Energy totalEnergy = 0;           //!< + log-device service energy
    std::vector<double> diskMeanInterArrival; //!< post-cache, per disk
    std::vector<uint64_t> diskAccesses;       //!< per disk
    /**
     * WTDU log-device service energy (J); the slice of totalEnergy
     * not covered by perDisk. Zero when the run has no log device.
     */
    Energy logServiceEnergy = 0;
    uint64_t logWrites = 0;
    uint64_t prefetchedBlocks = 0;
    std::size_t numModes = 0; //!< for interpreting the breakdowns
};

/** Display name for a policy kind. */
const char *policyKindName(PolicyKind kind);

/** True for PA-family policies, which need a PaClassifier. */
bool policyNeedsClassifier(PolicyKind kind);

/**
 * True for policies that need the whole future access stream before
 * the run starts (off-line future knowledge, or the infinite-cache
 * sizing rule). These cannot drive a live serving front-end.
 */
bool policyNeedsFuture(PolicyKind kind);

/**
 * True for the off-line oracles (Belady, OPG), which read every
 * access's next use from a built WindowedFuture.
 */
bool policyNeedsNextUse(PolicyKind kind);

/** First mode below full speed on the power model's lower envelope. */
std::size_t firstEnvelopeNap(const PowerModel &pm);

/**
 * The experiment's PA parameters with intervalThreshold <= 0
 * resolved to the model's break-even time of the first NAP mode.
 */
PaParams resolvePaParams(const ExperimentConfig &config,
                         const PowerModel &pm);

/**
 * Build the replacement policy an ExperimentConfig asks for, as
 * SimStack does. @p classifier may be null unless the policy is
 * PA-family; @p capacity sizes ARC/LIRS ghost lists. The off-line
 * oracles (policyNeedsNextUse) are armed with @p future, which must
 * be built; other policies ignore it. Exposed for harnesses that
 * drive a bare Cache + policy without a whole stack.
 */
std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(const ExperimentConfig &config, const PowerModel &pm,
                      const PaClassifier *classifier, std::size_t capacity,
                      WindowedFuture future = {});

/**
 * The future an off-line policy (policyNeedsNextUse) replays @p trace
 * with, built in memory from the expanded trace; an unbuilt one for
 * any other policy. Pass it to the SimStack that replays @p trace.
 */
WindowedFuture buildFuture(const Trace &trace,
                           const ExperimentConfig &config);

/**
 * Run one experiment over @p trace. Off-line policies (Belady, OPG)
 * get their future built in memory (buildFuture) before the replay.
 */
ExperimentResult runExperiment(const Trace &trace,
                               const ExperimentConfig &config);

/**
 * Run one experiment by streaming records from @p source (rewinding
 * it first if a pre-scan is needed), so traces larger than RAM can
 * drive the system. The infinite cache sizes itself from a
 * constant-memory pre-scan and streams. Off-line policies (Belady,
 * OPG) run out of core on windowed future knowledge built over the
 * source's .pct file (config.windowAccesses, 0 = the default
 * window); the source is never materialized. Statistics are
 * identical to the in-memory overload on the same workload.
 */
ExperimentResult runExperiment(tracefmt::TraceSource &source,
                               const ExperimentConfig &config);

} // namespace pacache

#endif // PACACHE_CORE_EXPERIMENT_HH
