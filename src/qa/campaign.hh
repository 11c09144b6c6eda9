/**
 * @file
 * The pacache_fuzz campaign driver: generate cases from a master
 * seed, run every selected property on each, shrink the failures, and
 * emit self-contained corpus reproducers.
 *
 * Determinism: case i is always makeCase(seed, i), regardless of job
 * count or wall clock — a time-budgeted campaign decides only *how
 * many* cases run, never *which* case an index produces, so any
 * failure is exactly reproducible with --seed and the reported case
 * index (or by replaying the emitted corpus file).
 */

#ifndef PACACHE_QA_CAMPAIGN_HH
#define PACACHE_QA_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "qa/properties.hh"
#include "qa/trace_gen.hh"

namespace pacache::qa
{

/** Campaign parameters. */
struct CampaignOptions
{
    uint64_t seed = 1;
    /** Stop after this much wall clock (seconds); 0 = use cases. */
    double seconds = 0;
    /** Run exactly this many cases; 0 = run until seconds expire. */
    uint64_t cases = 0;
    /** Properties to run; empty = the whole registry. */
    std::vector<const PropertyDef *> properties;
    unsigned jobs = 1;
    /** Directory for shrunk reproducers; empty = don't write. */
    std::string corpusDir;
    bool shrink = true;
    /** Cap on predicate evaluations per shrink. */
    std::size_t shrinkAttempts = 2000;
    CaseProfile profile;
    /** Revision stamp recorded in emitted corpus files. */
    std::string revision;
};

/** One property failure, post-shrink. */
struct CampaignFailure
{
    std::string property;
    uint64_t caseIndex = 0;
    uint64_t caseSeed = 0;
    std::string message;        //!< from the original failing case
    FuzzCase shrunk;
    std::size_t shrunkFrom = 0; //!< record count before shrinking
    std::string corpusPath;     //!< empty when not written
};

/** Per-property tally. */
struct PropertyTally
{
    std::string name;
    uint64_t checks = 0;
    uint64_t failures = 0;
};

/** Campaign outcome. */
struct CampaignReport
{
    uint64_t casesRun = 0;
    uint64_t checksRun = 0;
    double wallSeconds = 0;
    std::vector<PropertyTally> tallies; //!< registry order
    std::vector<CampaignFailure> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * Run a campaign. Each batch of cases runs through parallelFor into
 * pre-assigned result slots (batch results are aggregated in case
 * order); shrinking runs serially afterwards so shrink cost never
 * distorts the case budget accounting mid-flight.
 */
CampaignReport runCampaign(const CampaignOptions &opts);

} // namespace pacache::qa

#endif // PACACHE_QA_CAMPAIGN_HH
