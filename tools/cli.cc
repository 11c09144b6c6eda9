#include "cli.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "trace/synthetic.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"
#include "tracefmt/detect.hh"
#include "tracefmt/trace_source.hh"
#include "util/build_info.hh"
#include "util/logging.hh"

namespace pacache::cli
{

Args::Args(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            pos.push_back(std::move(arg));
            continue;
        }
        arg.erase(0, 2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            values[arg] = argv[++i];
        } else {
            values[arg] = "1"; // boolean flag
        }
    }
}

bool
Args::has(const std::string &key) const
{
    return values.count(key) > 0;
}

std::string
Args::get(const std::string &key, const std::string &fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
}

double
Args::getDouble(const std::string &key, double fallback) const
{
    auto it = values.find(key);
    if (it == values.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        PACACHE_FATAL("flag --", key, " expects a number, got '",
                      it->second, "'");
    return v;
}

uint64_t
Args::getUint(const std::string &key, uint64_t fallback,
              uint64_t max) const
{
    auto it = values.find(key);
    if (it == values.end())
        return fallback;
    // strtoull would accept a sign (negating in unsigned arithmetic)
    // and saturate on overflow; both are errors here, not huge sizes.
    const std::string &text = it->second;
    char *end = nullptr;
    errno = 0;
    const auto v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE)
        PACACHE_FATAL("flag --", key,
                      " expects a non-negative integer below 2^64, got '",
                      text, "'");
    if (v > max)
        PACACHE_FATAL("flag --", key, " expects at most ", max, ", got '",
                      text, "'");
    return v;
}

std::string
Args::firstUnknown(const std::set<std::string> &known) const
{
    for (const auto &[key, value] : values) {
        if (!known.count(key))
            return key;
    }
    return {};
}

bool
handleStandardFlags(const Args &args, const std::string &tool,
                    const char *usage,
                    const std::set<std::string> &known)
{
    if (args.has("help")) {
        std::cout << usage;
        return true;
    }
    if (args.has("version")) {
        std::cout << buildInfoBanner(tool.c_str()) << '\n';
        return true;
    }
    std::set<std::string> all = known;
    all.insert("help");
    all.insert("version");
    if (const std::string bad = args.firstUnknown(all); !bad.empty())
        PACACHE_FATAL("unknown flag --", bad, " (see --help)");
    return false;
}

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

std::ofstream
openOutput(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        PACACHE_FATAL("cannot open '", path, "' for writing");
    return out;
}

const std::set<std::string> &
workloadFlags()
{
    static const std::set<std::string> flags{
        "trace",        "trace-format", "workload", "duration",
        "requests",     "write-ratio",  "interarrival", "pareto",
        "disks",        "seed"};
    return flags;
}

namespace
{

/** The built-in generator @p name, driven by the workload flags. */
Trace
generateWorkload(const Args &args, const std::string &name)
{
    if (name == "oltp") {
        OltpParams p;
        p.duration = args.getDouble("duration", p.duration);
        p.seed = args.getUint("seed", p.seed);
        return makeOltpTrace(p);
    }
    if (name == "cello") {
        CelloParams p;
        p.duration = args.getDouble("duration", 300.0);
        p.seed = args.getUint("seed", p.seed);
        return makeCelloTrace(p);
    }
    if (name == "opg-showcase") {
        OpgShowcaseParams p;
        p.duration = args.getDouble("duration", p.duration);
        return makeOpgShowcaseTrace(p);
    }
    if (name == "synthetic") {
        SyntheticParams p;
        p.numRequests = args.getUint("requests", 20000);
        p.numDisks =
            static_cast<uint32_t>(args.getUint("disks", p.numDisks,
                                               UINT32_MAX));
        p.writeRatio = args.getDouble("write-ratio", p.writeRatio);
        const double mean =
            args.getDouble("interarrival", p.arrival.meanMs);
        p.arrival = args.has("pareto")
            ? ArrivalModel::pareto(mean)
            : ArrivalModel::exponential(mean);
        p.seed = args.getUint("seed", p.seed);
        return generateSynthetic(p);
    }
    PACACHE_FATAL("unknown workload '", name, "'");
}

} // namespace

Trace
loadWorkload(const Args &args, const std::string &default_workload)
{
    if (args.has("trace")) {
        const std::string path = args.get("trace", "");
        const auto src = tracefmt::openTraceSource(
            path,
            tracefmt::parseTraceFormat(
                args.get("trace-format", "auto")));
        Trace trace = tracefmt::readAll(*src);
        if (trace.empty())
            PACACHE_FATAL("trace '", path, "' has no records");
        return trace;
    }
    const std::string name = args.get("workload", default_workload);
    Trace trace = generateWorkload(args, name);
    if (trace.empty())
        PACACHE_FATAL("workload '", name, "' has no records");
    return trace;
}

} // namespace pacache::cli
