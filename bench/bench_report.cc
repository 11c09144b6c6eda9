#include "bench_report.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "runner/thread_pool.hh"
#include "util/build_info.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace pacache::benchsupport
{

unsigned
jobsFromEnv()
{
    const char *env = std::getenv("PACACHE_JOBS");
    if (!env || !*env)
        return 0;
    return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
}

BenchReport::BenchReport(std::string name, unsigned jobs)
    : name(std::move(name)),
      jobs(jobs == 0 ? runner::defaultWorkers() : jobs)
{
}

void
BenchReport::addRun(const std::string &label, double wall_ms,
                    uint64_t requests)
{
    runs.push_back(Run{label, wall_ms, requests});
}

void
BenchReport::metric(const std::string &key, double value)
{
    metrics.emplace_back(key, value);
}

double
BenchReport::totalWallMs() const
{
    double total = 0;
    for (const Run &r : runs)
        total += r.wallMs;
    return total;
}

std::string
BenchReport::write() const
{
    const char *dir = std::getenv("PACACHE_BENCH_DIR");
    std::string path = dir && *dir ? std::string(dir) + "/" : "";
    path += "BENCH_" + name + ".json";

    std::ofstream out(path);
    if (!out) {
        PACACHE_WARN("cannot write benchmark report '", path, "'");
        return path;
    }

    uint64_t totalRequests = 0;
    for (const Run &r : runs)
        totalRequests += r.requests;
    const double wallMs = totalWallMs();

    JsonWriter json(out);
    json.beginObject();
    json.kv("bench", name);
    json.kv("git", buildInfo().gitDescribe);
    json.kv("jobs", jobs);
    json.kv("wall_ms", wallMs);
    json.kv("requests", totalRequests);
    json.kv("requests_per_sec",
            wallMs > 0
                ? static_cast<double>(totalRequests) * 1000.0 / wallMs
                : 0.0);
    for (const auto &[key, value] : metrics)
        json.kv(key, value);
    json.key("runs");
    json.beginArray();
    for (const Run &r : runs) {
        json.beginObject();
        json.kv("label", r.label);
        json.kv("wall_ms", r.wallMs);
        json.kv("requests", r.requests);
        json.kv("requests_per_sec",
                r.wallMs > 0 ? static_cast<double>(r.requests) *
                                   1000.0 / r.wallMs
                             : 0.0);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
    std::cerr << "[bench] wrote " << path << '\n';
    return path;
}

} // namespace pacache::benchsupport
