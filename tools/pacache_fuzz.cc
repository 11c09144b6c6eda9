/**
 * @file
 * pacache_fuzz — the generative differential-testing campaign driver.
 *
 * Generates fuzz cases (synthetic traces + fuzzed configurations and
 * power models) from a master seed, runs the qa property registry on
 * each, shrinks any failure with delta debugging, and writes
 * self-contained corpus reproducers.
 *
 * Examples:
 *   pacache_fuzz --seconds 30 --seed 7 --jobs 4
 *   pacache_fuzz --cases 200 --property opg_matches_ref
 *   pacache_fuzz --replay tests/qa/corpus/some_failure.corpus
 *
 * Exit status: 0 when every check passed, 1 on any property failure
 * (or usage error), so CI can gate on it directly.
 */

#include <iostream>
#include <limits>
#include <set>
#include <sstream>

#include "cli.hh"
#include "qa/campaign.hh"
#include "qa/properties.hh"
#include "util/build_info.hh"
#include "util/logging.hh"

using namespace pacache;

namespace
{

const char kUsage[] = R"(pacache_fuzz — property-based differential fuzzer

  --seconds S        run new cases until S seconds elapse
  --cases N          run exactly N cases (overrides --seconds)
  --seed N           master seed (default 1); case i is derived
                     deterministically from (seed, i)
  --property NAME    run only this property (repeatable via commas)
  --jobs N           worker threads (default 1; 0 = hardware)
  --corpus-out DIR   write shrunk reproducers into DIR
  --no-shrink        keep failing cases unshrunk
  --replay FILE     re-run a corpus reproducer instead of a campaign
  --list             list registered properties
  --max-requests N   cap generated trace length (default 1200)
  --crash            crash-recovery preset: run the WTDU/serve crash
                     properties on small cases (50-400 requests, <=3
                     disks) so each case replays many fault scenarios
                     per second; combine with --property to narrow
  --help             this text
  --version          build information

A campaign prints one line per property with check/failure counts and
exits non-zero if anything failed. Failures name the case index: the
exact case is reproducible with the same --seed (and --cases at least
index+1), or from the emitted corpus file.
)";

int
replayCorpus(const std::string &path)
{
    const qa::CorpusEntry entry = qa::readCorpusFile(path);
    const qa::PropertyDef *prop = qa::findProperty(entry.meta.property);
    if (!prop)
        PACACHE_FATAL("corpus file '", path,
                      "' names unknown property '", entry.meta.property,
                      "'");
    const qa::PropertyResult result =
        qa::runProperty(*prop, entry.fuzzCase);
    if (result.passed) {
        std::cout << path << ": " << prop->name << " PASSED ("
                  << entry.fuzzCase.trace.size() << " records)\n";
        return 0;
    }
    std::cout << path << ": " << prop->name << " FAILED: "
              << result.message << '\n';
    return 1;
}

std::vector<const qa::PropertyDef *>
selectProperties(const std::string &spec)
{
    std::vector<const qa::PropertyDef *> props;
    std::istringstream is(spec);
    std::string name;
    while (std::getline(is, name, ',')) {
        if (name.empty())
            continue;
        const qa::PropertyDef *prop = qa::findProperty(name);
        if (!prop)
            PACACHE_FATAL("unknown property '", name,
                          "' (see --list)");
        props.push_back(prop);
    }
    return props;
}

} // namespace

int
main(int argc, char **argv)
try {
    const cli::Args args(argc, argv);
    const std::set<std::string> known{
        "seconds", "cases", "seed", "property", "jobs", "corpus-out",
        "no-shrink", "replay", "list", "max-requests", "crash"};
    if (cli::handleStandardFlags(args, "pacache_fuzz", kUsage, known))
        return 0;

    if (args.has("list")) {
        for (const qa::PropertyDef &prop : qa::allProperties())
            std::cout << prop.name << "\n    " << prop.description
                      << '\n';
        return 0;
    }
    if (args.has("replay"))
        return replayCorpus(args.get("replay", ""));

    qa::CampaignOptions opts;
    opts.seed = args.getUint("seed", 1);
    opts.seconds = args.getDouble("seconds", 0);
    opts.cases = args.getUint("cases", 0);
    opts.jobs = static_cast<unsigned>(
        args.getUint("jobs", 1, std::numeric_limits<unsigned>::max()));
    opts.corpusDir = args.get("corpus-out", "");
    opts.shrink = !args.has("no-shrink");
    if (args.has("crash")) {
        // Small cases: a crash scenario's interesting structure is the
        // fault site and timing, not trace length, and shorter traces
        // let one budget cover far more fault scenarios.
        opts.profile.minRequests = 50;
        opts.profile.maxRequests = 400;
        opts.profile.maxCacheBlocks = 64;
        opts.profile.maxDisks = 3;
        opts.properties = selectProperties(
            "wtdu_crash_durability,wtdu_crash_ledger,"
            "wtdu_recovery_idempotent_under_crash,"
            "serve_crash_shutdown_recovery");
    }
    opts.profile.maxRequests =
        args.getUint("max-requests", opts.profile.maxRequests);
    if (args.has("property"))
        opts.properties = selectProperties(args.get("property", ""));
    if (opts.cases == 0 && opts.seconds <= 0)
        PACACHE_FATAL("need --seconds or --cases (see --help)");

    const qa::CampaignReport report = qa::runCampaign(opts);

    std::cout << "campaign: seed " << opts.seed << ", "
              << report.casesRun << " cases, " << report.checksRun
              << " checks in " << report.wallSeconds << "s\n";
    for (const qa::PropertyTally &tally : report.tallies)
        std::cout << "  " << tally.name << ": " << tally.checks
                  << " checks, " << tally.failures << " failures\n";

    for (const qa::CampaignFailure &failure : report.failures) {
        std::cout << "FAILURE: " << failure.property << " on case "
                  << failure.caseIndex << " (seed "
                  << failure.caseSeed << "): " << failure.message
                  << "\n  shrunk " << failure.shrunkFrom << " -> "
                  << failure.shrunk.trace.size() << " records";
        if (!failure.corpusPath.empty())
            std::cout << ", reproducer: " << failure.corpusPath;
        std::cout << '\n';
    }
    if (!report.ok()) {
        std::cout << report.failures.size() << " failure(s)\n";
        return 1;
    }
    std::cout << "all checks passed\n";
    return 0;
} catch (const std::exception &e) {
    std::cerr << e.what() << '\n';
    return 1;
}
