/**
 * @file
 * perfbench: the end-to-end and per-layer benchmark of PACache.
 *
 *   perfbench gen --workload W --seed N --out F.pct [--tiny]
 *       Build W's seeded input with the streaming generator.
 *   perfbench run --workload W --input F.pct --seconds S --trace 0|1
 *                 [--spans F.json] [--tmp DIR] [--tiny]
 *       --trace 0: untraced run, end-to-end metrics.
 *       --trace 1: isolated layer replays, per-layer metrics, spans.
 *
 * The last line of a run is "RESULT {...}" with the metrics, the
 * number of runs attempted and the number that failed a correctness
 * check. perfbench/run.py builds this program, generates and caches
 * the inputs, and turns that line into the benchmark's result.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.hh"
#include "obs/energy_ledger.hh"

namespace perfbench
{

SpanLog::SpanLog() : originNs(nowNs())
{
    writer.setTrackName(1, "perfbench");
}

void
SpanLog::add(const std::string &name, uint64_t start_ns, uint64_t end_ns)
{
    writer.complete(1, name, secondsBetween(originNs, start_ns),
                    secondsBetween(originNs, end_ns), "layer");
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    writer.writeJson(out);
    return static_cast<bool>(out);
}

void
Gate::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    std::printf("CHECK FAILED: %s\n", what.c_str());
    if (!currentFailed && attemptedRuns > 0) {
        currentFailed = true;
        ++failedRuns;
    }
}

void
Gate::sameAs(std::optional<Fingerprint> &ref, const Fingerprint &fp,
             const std::string &what)
{
    if (!ref)
        ref = fp;
    else
        check(*ref == fp, what);
}

void
Gate::ledgerConserves(const pacache::ExperimentResult &r)
{
    const double err = pacache::obs::ledgerMaxRelError(r.perDisk);
    worstLedger = std::max(worstLedger, err);
    check(err <= pacache::obs::kLedgerConservationTol,
          "energy ledger conserves within 1e-9");
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Report::printTable() const
{
    for (const Metric &m : metrics) {
        std::printf("  %-32s %18.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

void
Report::printResult(const Gate &gate) const
{
    bool finite = true;
    std::string json = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        finite = finite && std::isfinite(m.value);
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        if (i)
            json += ", ";
        json += "\"" + m.name + "\": {\"value\": ";
        json += value;
        json += ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}";
    const bool correct = finite && gate.failed() == 0 &&
                         gate.attempted() > 0;
    std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(gate.attempted()),
                static_cast<unsigned long long>(gate.failed()),
                json.c_str());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[i - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench gen --workload W --seed N --out F "
                 "[--tiny]\n"
                 "       perfbench run --workload W --input F "
                 "--seconds S --trace 0|1 [--spans F] [--tmp DIR] "
                 "[--tiny]\n");
    return 2;
}

int
realMain(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    std::map<std::string, std::string> args;
    bool tiny = false;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            tiny = true;
        } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
            args[a.substr(2)] = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
            return usage();
        }
    }
    const std::optional<Workload> w =
        findWorkload(args["workload"], tiny);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args["workload"].c_str());
        return usage();
    }

    if (cmd == "gen") {
        if (args["out"].empty() || args["seed"].empty())
            return usage();
        generateInput(*w, std::stoull(args["seed"]), args["out"]);
        return 0;
    }
    if (cmd != "run" || args["input"].empty())
        return usage();

    RunOptions opt;
    opt.input = args["input"];
    opt.seconds = args["seconds"].empty() ? 10.0
                                          : std::stod(args["seconds"]);
    opt.spansOut = args["spans"];
    opt.tmpDir = args["tmp"];
    Report report;
    Gate gate;
    if (args["trace"] == "1")
        runLayers(*w, opt, report, gate);
    else
        runEndToEnd(*w, opt, report, gate);
    std::printf("%s metrics (%llu runs, %llu failed, failed_frac %.6g):\n",
                w->name.c_str(),
                static_cast<unsigned long long>(gate.attempted()),
                static_cast<unsigned long long>(gate.failed()),
                gate.attempted()
                    ? static_cast<double>(gate.failed()) /
                          static_cast<double>(gate.attempted())
                    : 0.0);
    report.printTable();
    report.printResult(gate);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return realMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
