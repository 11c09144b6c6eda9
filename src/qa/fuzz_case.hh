/**
 * @file
 * FuzzCase — one self-contained generated test case for the qa
 * subsystem, and the on-disk corpus format its reproducers use.
 *
 * A case carries a *materialized* trace rather than generator
 * parameters: the shrinker edits records directly, and a corpus file
 * must replay bit-for-bit years later even if the generators change.
 * The generator seed is retained as provenance only.
 *
 * Corpus format (text, one file per reproducer):
 *
 *     pacache-corpus v1
 *     property: opg_matches_ref         # registry name to replay
 *     seed: 12345                       # campaign case seed
 *     pre_fix_rev: 0307659              # revision that failed this
 *     description: free text
 *     cache_blocks: 8
 *     policy: lru                       # experiment-level properties
 *     dpm_kind: oracle                  # OPG pricing
 *     dpm: practical                    # experiment DPM regime
 *     write_policy: wtdu
 *     wtdu_region_blocks: 8
 *     theta: 0
 *     crash_step: 17
 *     pa_epoch: 20
 *     spec: <idleW> <standbyW> <upJ> <upS> <downJ> <downS>
 *     crash_site: retire-post            # optional: armed CrashPlan
 *     crash_occurrence: 3                # fire on the Nth site hit
 *     crash_reorder_seed: 99             # in-flight survival draw
 *     crash_survive_prob: 0.5
 *     trace:
 *     <time> <disk> <block> <count> <R|W>     # native text format
 *     end
 *
 * Doubles are printed with 17 significant digits, so every time (and
 * theta, and spec field) round-trips to the exact same bit pattern —
 * several differential properties are sensitive to ulps.
 */

#ifndef PACACHE_QA_FUZZ_CASE_HH
#define PACACHE_QA_FUZZ_CASE_HH

#include <iosfwd>
#include <string>

#include "core/experiment.hh"
#include "core/fault.hh"
#include "core/opg.hh"
#include "trace/trace.hh"

namespace pacache::qa
{

/** System knobs of one generated case. */
struct CaseConfig
{
    std::size_t cacheBlocks = 64;
    PolicyKind policy = PolicyKind::LRU; //!< experiment-level checks
    DpmKind dpmKind = DpmKind::Oracle;   //!< OPG penalty pricing
    DpmChoice dpm = DpmChoice::Practical; //!< experiment DPM regime
    WritePolicy writePolicy = WritePolicy::WriteBack;
    std::size_t wtduRegionBlocks = 8;
    Energy theta = 0;          //!< OPG penalty floor
    uint64_t crashStep = 0;    //!< WTDU recovery crash point
    double paEpoch = 20.0;     //!< PA classifier epoch length (s)
    DiskSpec spec;             //!< fuzzed power-model constants
    CrashPlan crash;           //!< fault scenario (crash properties)
};

/** One self-contained qa case. */
struct FuzzCase
{
    uint64_t seed = 0;   //!< generator seed (provenance)
    CaseConfig cfg;
    Trace trace;

    /** The fuzzed power model (derived from cfg.spec). */
    PowerModel powerModel() const { return PowerModel(cfg.spec); }

    /** The experiment the knobs describe, @p fault wired in. */
    ExperimentConfig experimentConfig(FaultInjector *fault = nullptr) const;
};

/** Reproducer metadata stored alongside the case in a corpus file. */
struct CorpusMeta
{
    std::string property;    //!< registry name the case fails
    std::string preFixRev;   //!< revision the failure was found at
    std::string description; //!< one line: what went wrong
};

/** A parsed corpus file. */
struct CorpusEntry
{
    CorpusMeta meta;
    FuzzCase fuzzCase;
};

/** Serialize @p entry into corpus format. */
void writeCorpus(std::ostream &os, const CorpusEntry &entry);

/** Write a corpus file (fatal on I/O failure). */
void writeCorpusFile(const std::string &path, const CorpusEntry &entry);

/**
 * Parse corpus format. Unknown keys, a missing header/trailer, or a
 * malformed trace line are fatal with file:line context via @p name.
 */
CorpusEntry readCorpus(std::istream &is, const std::string &name);

/** Read a corpus file (fatal on I/O or format errors). */
CorpusEntry readCorpusFile(const std::string &path);

/** Print a double with round-trip (17 significant digit) precision. */
std::string formatExact(double v);

} // namespace pacache::qa

#endif // PACACHE_QA_FUZZ_CASE_HH
