#include "qa/campaign.hh"

#include <chrono>
#include <filesystem>
#include <sstream>

#include "qa/shrink.hh"
#include "runner/thread_pool.hh"
#include "util/logging.hh"

namespace pacache::qa
{

namespace
{

/** One case's verdicts across the selected properties. */
struct CaseOutcome
{
    /** Index into the selected-property list, one failure message
     *  each; empty = clean case. */
    std::vector<std::pair<std::size_t, std::string>> failures;
};

CaseOutcome
runCase(const FuzzCase &c,
        const std::vector<const PropertyDef *> &props)
{
    CaseOutcome out;
    for (std::size_t p = 0; p < props.size(); ++p) {
        const PropertyResult r = runProperty(*props[p], c);
        if (!r.passed)
            out.failures.emplace_back(p, r.message);
    }
    return out;
}

std::string
corpusFileName(const CampaignFailure &failure)
{
    std::ostringstream os;
    os << failure.property << '_' << failure.caseSeed << ".corpus";
    return os.str();
}

} // namespace

CampaignReport
runCampaign(const CampaignOptions &opts)
{
    using Clock = std::chrono::steady_clock;

    std::vector<const PropertyDef *> props = opts.properties;
    if (props.empty())
        for (const PropertyDef &prop : allProperties())
            props.push_back(&prop);
    PACACHE_ASSERT(opts.cases > 0 || opts.seconds > 0,
                   "campaign needs a case count or a time budget");

    CampaignReport report;
    report.tallies.reserve(props.size());
    for (const PropertyDef *prop : props)
        report.tallies.push_back({prop->name, 0, 0});

    const unsigned jobs =
        opts.jobs == 0 ? runner::defaultWorkers() : opts.jobs;
    const uint64_t batchSize =
        opts.cases > 0 ? opts.cases
                       : std::max<uint64_t>(uint64_t{jobs} * 8, 32);

    const auto start = Clock::now();
    auto elapsed = [&start] {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    std::vector<CampaignFailure> rawFailures;
    uint64_t nextIndex = 0;
    for (;;) {
        if (opts.cases > 0 && nextIndex >= opts.cases)
            break;
        if (opts.cases == 0 && elapsed() >= opts.seconds)
            break;

        uint64_t batch = batchSize;
        if (opts.cases > 0)
            batch = std::min<uint64_t>(batch, opts.cases - nextIndex);

        // Pre-assigned slots: aggregation below reads them in case
        // order, so job count never changes the report.
        std::vector<CaseOutcome> outcomes(batch);
        runner::parallelFor(batch, jobs, [&](std::size_t i) {
            const FuzzCase c =
                makeCase(opts.seed, nextIndex + i, opts.profile);
            outcomes[i] = runCase(c, props);
        });

        for (uint64_t i = 0; i < batch; ++i) {
            const uint64_t index = nextIndex + i;
            ++report.casesRun;
            report.checksRun += props.size();
            for (std::size_t p = 0; p < props.size(); ++p)
                ++report.tallies[p].checks;
            for (const auto &[p, message] : outcomes[i].failures) {
                ++report.tallies[p].failures;
                CampaignFailure failure;
                failure.property = props[p]->name;
                failure.caseIndex = index;
                failure.caseSeed = deriveSeed(opts.seed, index);
                failure.message = message;
                rawFailures.push_back(std::move(failure));
            }
        }
        nextIndex += batch;
    }
    // Shrinking is serial and outside the timed loop: it re-runs the
    // failing property many times and would otherwise eat the budget
    // that determines how many cases a --seconds campaign covers.
    for (CampaignFailure &failure : rawFailures) {
        const FuzzCase original =
            makeCase(opts.seed, failure.caseIndex, opts.profile);
        failure.shrunkFrom = original.trace.size();
        failure.shrunk = original;
        const PropertyDef *prop = findProperty(failure.property);
        if (opts.shrink && prop) {
            const FailFn stillFails = [prop](const FuzzCase &c) {
                return !runProperty(*prop, c).passed;
            };
            failure.shrunk = shrinkCase(original, stillFails,
                                        opts.shrinkAttempts);
        }
        if (!opts.corpusDir.empty()) {
            std::filesystem::create_directories(opts.corpusDir);
            CorpusEntry entry;
            entry.meta.property = failure.property;
            entry.meta.preFixRev = opts.revision;
            entry.meta.description = failure.message;
            entry.fuzzCase = failure.shrunk;
            const std::string path =
                (std::filesystem::path(opts.corpusDir) /
                 corpusFileName(failure))
                    .string();
            writeCorpusFile(path, entry);
            failure.corpusPath = path;
        }
        report.failures.push_back(std::move(failure));
    }

    report.wallSeconds = elapsed();
    return report;
}

} // namespace pacache::qa
