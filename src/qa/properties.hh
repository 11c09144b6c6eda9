/**
 * @file
 * The qa property registry: every differential and metamorphic
 * property the fuzzer can throw a FuzzCase at.
 *
 * A property is a pure check FuzzCase -> PropertyResult. Differential
 * properties replay a fast-path implementation against a reference
 * (OPG and Belady vs NaiveOracle, segment tables vs legacy scans) and
 * demand bit-identical behavior; metamorphic properties relate two
 * runs of the same system (streaming vs materialized, parallel vs
 * serial, growing cache sizes, crash/recover twice) whose outputs
 * must agree by construction.
 *
 * Failures carry a human-readable message naming the first observed
 * divergence; thrown exceptions (PACACHE_FATAL / PACACHE_PANIC /
 * anything std::exception) are converted into failures by
 * runProperty, so a property that trips an internal assertion still
 * produces a shrinkable counterexample instead of killing the
 * campaign.
 */

#ifndef PACACHE_QA_PROPERTIES_HH
#define PACACHE_QA_PROPERTIES_HH

#include <functional>
#include <string>
#include <vector>

#include "cache/policy.hh"
#include "qa/fuzz_case.hh"

namespace pacache::qa
{

/** Outcome of one property check on one case. */
struct PropertyResult
{
    bool passed = true;
    std::string message; //!< first divergence, empty when passed

    static PropertyResult ok() { return {}; }

    static PropertyResult
    fail(std::string msg)
    {
        return {false, std::move(msg)};
    }
};

/** One registered property. */
struct PropertyDef
{
    const char *name;        //!< stable registry key (corpus files)
    const char *description; //!< one line for --list
    std::function<PropertyResult(const FuzzCase &)> check;
};

/** The full registry, in stable order. */
const std::vector<PropertyDef> &allProperties();

/** Look up a property by name (null if absent). */
const PropertyDef *findProperty(const std::string &name);

/**
 * Run @p prop on @p c, converting any thrown std::exception into a
 * failed result carrying the exception text.
 */
PropertyResult runProperty(const PropertyDef &prop, const FuzzCase &c);

/**
 * The differential-replay harness behind the policy-equivalence
 * properties: drive @p candidate and @p reference through identical
 * caches over the case's expanded access stream (expandTrace(c.trace),
 * which an off-line policy must already be armed with) and demand the
 * same victim sequence and counters. Exposed so tests can inject a
 * deliberately faulty candidate and watch the harness (and the
 * shrinker) catch it.
 */
PropertyResult checkPolicyDifferential(const FuzzCase &c,
                                       ReplacementPolicy &candidate,
                                       ReplacementPolicy &reference);

} // namespace pacache::qa

#endif // PACACHE_QA_PROPERTIES_HH
