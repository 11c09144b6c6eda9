#include "qa/fuzz_case.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "runner/sweep.hh"
#include "util/logging.hh"

namespace pacache::qa
{

ExperimentConfig
FuzzCase::experimentConfig(FaultInjector *fault) const
{
    ExperimentConfig out;
    out.policy = cfg.policy;
    out.dpm = cfg.dpm;
    out.cacheBlocks = cfg.cacheBlocks > 0 ? cfg.cacheBlocks : 1;
    out.storage.writePolicy = cfg.writePolicy;
    out.storage.wtduRegionBlocks =
        cfg.wtduRegionBlocks > 0 ? cfg.wtduRegionBlocks : 1;
    out.storage.fault = fault;
    out.spec = cfg.spec;
    out.pa.epochLength = cfg.paEpoch;
    out.opgTheta = cfg.theta;
    return out;
}

namespace
{

constexpr const char *kHeader = "pacache-corpus v1";

/** One record in corpus trace format (exact-precision time). */
std::string
formatRecord(const TraceRecord &rec)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %u %" PRIu64 " %u %c",
                  formatExact(rec.time).c_str(), rec.disk, rec.block,
                  rec.numBlocks, rec.write ? 'W' : 'R');
    return buf;
}

[[noreturn]] void
corpusFail(const std::string &name, std::size_t line,
           const std::string &what)
{
    PACACHE_FATAL("corpus file ", name, ":", line, ": ", what);
}

TraceRecord
parseCorpusRecord(const std::string &line, const std::string &name,
                  std::size_t lineno)
{
    TraceRecord rec;
    char rw = 0;
    char trailing = 0;
    const int got =
        std::sscanf(line.c_str(), "%lf %u %" SCNu64 " %u %c %c",
                    &rec.time, &rec.disk, &rec.block, &rec.numBlocks,
                    &rw, &trailing);
    if (got != 5 || (rw != 'R' && rw != 'W'))
        corpusFail(name, lineno, "malformed trace record '" + line + "'");
    if (rec.numBlocks == 0)
        corpusFail(name, lineno, "zero-length trace record");
    rec.write = rw == 'W';
    return rec;
}

} // namespace

std::string
formatExact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeCorpus(std::ostream &os, const CorpusEntry &entry)
{
    const CaseConfig &cfg = entry.fuzzCase.cfg;
    os << kHeader << '\n';
    os << "property: " << entry.meta.property << '\n';
    os << "seed: " << entry.fuzzCase.seed << '\n';
    os << "pre_fix_rev: "
       << (entry.meta.preFixRev.empty() ? "unknown"
                                        : entry.meta.preFixRev)
       << '\n';
    os << "description: " << entry.meta.description << '\n';
    os << "cache_blocks: " << cfg.cacheBlocks << '\n';
    os << "policy: " << runner::policyCliName(cfg.policy) << '\n';
    os << "dpm_kind: "
       << (cfg.dpmKind == DpmKind::Oracle ? "oracle" : "practical")
       << '\n';
    os << "dpm: " << runner::dpmChoiceName(cfg.dpm) << '\n';
    os << "write_policy: " << runner::writePolicyCliName(cfg.writePolicy)
       << '\n';
    os << "wtdu_region_blocks: " << cfg.wtduRegionBlocks << '\n';
    os << "theta: " << formatExact(cfg.theta) << '\n';
    os << "crash_step: " << cfg.crashStep << '\n';
    os << "pa_epoch: " << formatExact(cfg.paEpoch) << '\n';
    os << "spec: " << formatExact(cfg.spec.idlePower) << ' '
       << formatExact(cfg.spec.standbyPower) << ' '
       << formatExact(cfg.spec.spinUpEnergy) << ' '
       << formatExact(cfg.spec.spinUpTime) << ' '
       << formatExact(cfg.spec.spinDownEnergy) << ' '
       << formatExact(cfg.spec.spinDownTime) << '\n';
    if (cfg.crash.armed) {
        // An unarmed plan writes nothing, so pre-crash corpus files
        // and crash reproducers share the same v1 format.
        os << "crash_site: " << crashSiteName(cfg.crash.site) << '\n';
        os << "crash_occurrence: " << cfg.crash.occurrence << '\n';
        os << "crash_reorder_seed: " << cfg.crash.reorderSeed << '\n';
        os << "crash_survive_prob: " << formatExact(cfg.crash.surviveProb)
           << '\n';
    }
    os << "trace:\n";
    for (const TraceRecord &rec : entry.fuzzCase.trace)
        os << formatRecord(rec) << '\n';
    os << "end\n";
}

void
writeCorpusFile(const std::string &path, const CorpusEntry &entry)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        PACACHE_FATAL("cannot open corpus file '", path,
                      "' for writing");
    writeCorpus(out, entry);
    out.flush();
    if (!out)
        PACACHE_FATAL("write error on corpus file '", path, "'");
}

CorpusEntry
readCorpus(std::istream &is, const std::string &name)
{
    CorpusEntry entry;
    std::string line;
    std::size_t lineno = 0;

    if (!std::getline(is, line) || line != kHeader)
        corpusFail(name, 1, std::string("expected '") + kHeader + "'");
    lineno = 1;

    bool inTrace = false;
    bool sawEnd = false;
    while (std::getline(is, line)) {
        ++lineno;
        // Strip trailing CR and inline comments outside the trace.
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!inTrace) {
            const std::size_t hash = line.find('#');
            if (hash != std::string::npos)
                line = line.substr(0, hash);
            while (!line.empty() && line.back() == ' ')
                line.pop_back();
        }
        if (line.empty())
            continue;

        if (inTrace) {
            if (line == "end") {
                sawEnd = true;
                inTrace = false;
                continue;
            }
            entry.fuzzCase.trace.append(
                parseCorpusRecord(line, name, lineno));
            continue;
        }
        if (sawEnd)
            corpusFail(name, lineno, "content after 'end'");
        if (line == "trace:") {
            inTrace = true;
            continue;
        }

        const std::size_t colon = line.find(": ");
        std::string key, value;
        if (colon == std::string::npos) {
            // Bare "key:" with an empty value (e.g. description).
            if (line.back() != ':')
                corpusFail(name, lineno,
                           "expected 'key: value', got '" + line + "'");
            key = line.substr(0, line.size() - 1);
        } else {
            key = line.substr(0, colon);
            value = line.substr(colon + 2);
        }

        CaseConfig &cfg = entry.fuzzCase.cfg;
        try {
            if (key == "property") {
                entry.meta.property = value;
            } else if (key == "seed") {
                entry.fuzzCase.seed = std::stoull(value);
            } else if (key == "pre_fix_rev") {
                entry.meta.preFixRev = value;
            } else if (key == "description") {
                entry.meta.description = value;
            } else if (key == "cache_blocks") {
                cfg.cacheBlocks = std::stoull(value);
            } else if (key == "policy") {
                cfg.policy = runner::parsePolicyKind(value);
            } else if (key == "dpm_kind") {
                if (value == "oracle")
                    cfg.dpmKind = DpmKind::Oracle;
                else if (value == "practical")
                    cfg.dpmKind = DpmKind::Practical;
                else
                    corpusFail(name, lineno,
                               "unknown dpm_kind '" + value + "'");
            } else if (key == "dpm") {
                cfg.dpm = runner::parseDpmChoice(value);
            } else if (key == "write_policy") {
                cfg.writePolicy = runner::parseWritePolicy(value);
            } else if (key == "wtdu_region_blocks") {
                cfg.wtduRegionBlocks = std::stoull(value);
            } else if (key == "theta") {
                cfg.theta = std::stod(value);
            } else if (key == "crash_step") {
                cfg.crashStep = std::stoull(value);
            } else if (key == "pa_epoch") {
                cfg.paEpoch = std::stod(value);
            } else if (key == "crash_site") {
                if (!parseCrashSite(value, cfg.crash.site))
                    corpusFail(name, lineno,
                               "unknown crash_site '" + value + "'");
                cfg.crash.armed = true;
            } else if (key == "crash_occurrence") {
                cfg.crash.occurrence = std::stoull(value);
            } else if (key == "crash_reorder_seed") {
                cfg.crash.reorderSeed = std::stoull(value);
            } else if (key == "crash_survive_prob") {
                cfg.crash.surviveProb = std::stod(value);
                if (cfg.crash.surviveProb < 0.0 ||
                    cfg.crash.surviveProb > 1.0)
                    corpusFail(name, lineno,
                               "crash_survive_prob outside [0, 1]");
            } else if (key == "spec") {
                DiskSpec &s = cfg.spec;
                if (std::sscanf(value.c_str(),
                                "%lf %lf %lf %lf %lf %lf",
                                &s.idlePower, &s.standbyPower,
                                &s.spinUpEnergy, &s.spinUpTime,
                                &s.spinDownEnergy,
                                &s.spinDownTime) != 6)
                    corpusFail(name, lineno,
                               "spec needs 6 numeric fields");
            } else {
                corpusFail(name, lineno,
                           "unknown corpus key '" + key + "'");
            }
        } catch (const std::invalid_argument &) {
            corpusFail(name, lineno,
                       "bad numeric value for '" + key + "'");
        } catch (const std::out_of_range &) {
            corpusFail(name, lineno,
                       "out-of-range value for '" + key + "'");
        }
    }

    if (!sawEnd)
        corpusFail(name, lineno, "missing 'trace:' ... 'end' section");
    if (entry.meta.property.empty())
        corpusFail(name, lineno, "missing 'property:' key");
    return entry;
}

CorpusEntry
readCorpusFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        PACACHE_FATAL("cannot open corpus file '", path, "'");
    return readCorpus(in, path);
}

} // namespace pacache::qa
