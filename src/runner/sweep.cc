#include "runner/sweep.hh"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "obs/metrics.hh"
#include "runner/thread_pool.hh"
#include "trace/workloads.hh"
#include "util/json.hh"
#include "util/log_histogram.hh"
#include "util/logging.hh"

namespace pacache::runner
{

PolicyKind
parsePolicyKind(const std::string &name)
{
    if (name == "lru") return PolicyKind::LRU;
    if (name == "fifo") return PolicyKind::FIFO;
    if (name == "clock") return PolicyKind::CLOCK;
    if (name == "arc") return PolicyKind::ARC;
    if (name == "mq") return PolicyKind::MQ;
    if (name == "lirs") return PolicyKind::LIRS;
    if (name == "belady") return PolicyKind::Belady;
    if (name == "opg") return PolicyKind::OPG;
    if (name == "pa-lru") return PolicyKind::PALRU;
    if (name == "pa-arc") return PolicyKind::PAARC;
    if (name == "pa-lirs") return PolicyKind::PALIRS;
    if (name == "infinite") return PolicyKind::InfiniteCache;
    PACACHE_FATAL("unknown policy '", name, "'");
}

DpmChoice
parseDpmChoice(const std::string &name)
{
    if (name == "always-on") return DpmChoice::AlwaysOn;
    if (name == "adaptive") return DpmChoice::Adaptive;
    if (name == "practical") return DpmChoice::Practical;
    if (name == "oracle") return DpmChoice::Oracle;
    PACACHE_FATAL("unknown dpm '", name, "'");
}

WritePolicy
parseWritePolicy(const std::string &name)
{
    if (name == "wt") return WritePolicy::WriteThrough;
    if (name == "wb") return WritePolicy::WriteBack;
    if (name == "wbeu") return WritePolicy::WriteBackEagerUpdate;
    if (name == "wtdu") return WritePolicy::WriteThroughDeferredUpdate;
    PACACHE_FATAL("unknown write policy '", name, "'");
}

const char *
dpmChoiceName(DpmChoice dpm)
{
    switch (dpm) {
      case DpmChoice::AlwaysOn: return "always-on";
      case DpmChoice::Practical: return "practical";
      case DpmChoice::Adaptive: return "adaptive";
      case DpmChoice::Oracle: return "oracle";
    }
    PACACHE_PANIC("unknown dpm choice");
}

const char *
writePolicyCliName(WritePolicy policy)
{
    switch (policy) {
      case WritePolicy::WriteThrough: return "wt";
      case WritePolicy::WriteBack: return "wb";
      case WritePolicy::WriteBackEagerUpdate: return "wbeu";
      case WritePolicy::WriteThroughDeferredUpdate: return "wtdu";
    }
    PACACHE_PANIC("unknown write policy");
}

/** CLI-style policy spelling (parsePolicyKind's inverse). */
const char *
policyCliName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LRU: return "lru";
      case PolicyKind::FIFO: return "fifo";
      case PolicyKind::CLOCK: return "clock";
      case PolicyKind::ARC: return "arc";
      case PolicyKind::MQ: return "mq";
      case PolicyKind::LIRS: return "lirs";
      case PolicyKind::Belady: return "belady";
      case PolicyKind::OPG: return "opg";
      case PolicyKind::PALRU: return "pa-lru";
      case PolicyKind::PAARC: return "pa-arc";
      case PolicyKind::PALIRS: return "pa-lirs";
      case PolicyKind::InfiniteCache: return "infinite";
    }
    PACACHE_PANIC("unknown policy kind");
}

namespace
{

std::vector<std::string>
stringAxis(const JsonValue &v, const char *key)
{
    std::vector<std::string> out;
    for (const JsonValue &item : v.asArray())
        out.push_back(item.asString());
    PACACHE_ASSERT(!out.empty(), "sweep axis '", key, "' is empty");
    return out;
}

/**
 * A JSON number that must be a whole count in [0, max]; casting a
 * negative, fractional or oversized double to size_t instead would
 * be undefined or silently wrong.
 */
std::size_t
countValue(const JsonValue &v, const char *key, std::uint64_t max)
{
    const double d = v.asNumber();
    if (!(d >= 0 && d <= static_cast<double>(max)) || d != std::floor(d))
        PACACHE_FATAL("sweep key '", key, "' expects an integer in [0, ",
                      max, "], got ", d);
    return static_cast<std::size_t>(d);
}

Trace
buildWorkload(const std::string &name, double duration)
{
    if (name == "oltp") {
        OltpParams p;
        if (duration > 0)
            p.duration = duration;
        return makeOltpTrace(p);
    }
    if (name == "cello") {
        CelloParams p;
        if (duration > 0)
            p.duration = duration;
        return makeCelloTrace(p);
    }
    if (name == "opg-showcase") {
        OpgShowcaseParams p;
        if (duration > 0)
            p.duration = duration;
        return makeOpgShowcaseTrace(p);
    }
    PACACHE_FATAL("unknown sweep workload '", name,
                  "' (expected oltp | cello | opg-showcase)");
}

} // namespace

SweepSpec
SweepSpec::fromJson(const JsonValue &doc)
{
    PACACHE_ASSERT(doc.isObject(), "sweep spec must be a JSON object");
    SweepSpec spec;
    spec.workloads = {"oltp"};
    spec.policies = {PolicyKind::LRU};
    spec.cacheBlocks = {1024};
    spec.dpms = {DpmChoice::Practical};
    spec.writePolicies = {WritePolicy::WriteBack};

    for (const auto &[key, value] : doc.asObject()) {
        if (key == "name") {
            spec.name = value.asString();
        } else if (key == "workloads") {
            spec.workloads = stringAxis(value, "workloads");
        } else if (key == "policies") {
            spec.policies.clear();
            for (const std::string &s : stringAxis(value, "policies"))
                spec.policies.push_back(parsePolicyKind(s));
        } else if (key == "cache_blocks") {
            spec.cacheBlocks.clear();
            // 2^53: the largest count a JSON double holds exactly.
            for (const JsonValue &item : value.asArray())
                spec.cacheBlocks.push_back(countValue(
                    item, "cache_blocks", std::uint64_t{1} << 53));
            PACACHE_ASSERT(!spec.cacheBlocks.empty(),
                           "sweep axis 'cache_blocks' is empty");
        } else if (key == "dpms") {
            spec.dpms.clear();
            for (const std::string &s : stringAxis(value, "dpms"))
                spec.dpms.push_back(parseDpmChoice(s));
        } else if (key == "write_policies") {
            spec.writePolicies.clear();
            for (const std::string &s :
                 stringAxis(value, "write_policies"))
                spec.writePolicies.push_back(parseWritePolicy(s));
        } else if (key == "duration") {
            spec.duration = value.asNumber();
        } else if (key == "oracle_mem_budget_mb") {
            // Capped so the MiB-to-byte shift cannot wrap.
            spec.oracleMemBudgetMb =
                countValue(value, "oracle_mem_budget_mb",
                           std::numeric_limits<std::size_t>::max() >> 20);
        } else {
            PACACHE_FATAL("unknown sweep spec key '", key, "'");
        }
    }
    return spec;
}

SweepSpec
SweepSpec::fromJsonText(std::string_view text)
{
    return fromJson(JsonValue::parse(text));
}

SweepPlan::SweepPlan(const SweepSpec &spec)
{
    PACACHE_ASSERT(spec.points() > 0, "sweep '", spec.name,
                   "' expands to zero runs");
    // Reserve first: RunPoints hold raw pointers into this vector.
    traces.reserve(spec.workloads.size());
    runPoints.reserve(spec.points());
    for (const std::string &workload : spec.workloads) {
        traces.push_back(buildWorkload(workload, spec.duration));
        const Trace *trace = &traces.back();
        for (const PolicyKind policy : spec.policies) {
            for (const std::size_t blocks : spec.cacheBlocks) {
                for (const DpmChoice dpm : spec.dpms) {
                    for (const WritePolicy wp : spec.writePolicies) {
                        RunPoint point;
                        point.label = workload;
                        point.label += '/';
                        point.label += policyCliName(policy);
                        point.label += "/c";
                        point.label += std::to_string(blocks);
                        point.label += '/';
                        point.label += dpmChoiceName(dpm);
                        point.label += '/';
                        point.label += writePolicyCliName(wp);
                        // The budget only changes OPG's machinery
                        // (never its results); suffix the label so
                        // budgeted reports are self-describing.
                        if (spec.oracleMemBudgetMb > 0 &&
                            policy == PolicyKind::OPG) {
                            point.label += "/b";
                            point.label += std::to_string(
                                spec.oracleMemBudgetMb);
                            point.label += 'm';
                        }
                        point.trace = trace;
                        point.config.policy = policy;
                        point.config.cacheBlocks = blocks;
                        point.config.dpm = dpm;
                        point.config.storage.writePolicy = wp;
                        point.config.oracleMemBudget =
                            policy == PolicyKind::OPG
                                ? spec.oracleMemBudgetMb << 20
                                : 0;
                        runPoints.push_back(std::move(point));
                    }
                }
            }
        }
    }
}

void
recordDistGauges(obs::MetricRegistry &registry,
                 const std::string &prefix, const LogHistogram &hist)
{
    registry.gauge(prefix + ".count")
        .set(static_cast<double>(hist.count()));
    registry.gauge(prefix + ".mean").set(hist.bucketMean());
    registry.gauge(prefix + ".p50").set(hist.quantile(0.50));
    registry.gauge(prefix + ".p95").set(hist.quantile(0.95));
    registry.gauge(prefix + ".p99").set(hist.quantile(0.99));
    registry.gauge(prefix + ".min").set(hist.min());
    registry.gauge(prefix + ".max").set(hist.max());
}

std::vector<RunOutcome>
runAll(const std::vector<RunPoint> &points, unsigned jobs,
       obs::MetricRegistry *metrics)
{
    using Clock = std::chrono::steady_clock;

    std::vector<RunOutcome> outcomes(points.size());
    const unsigned workers = jobs == 0 ? defaultWorkers() : jobs;

    const auto sweepStart = Clock::now();
    // Each index owns exactly one pre-assigned outcome slot, so
    // completion order cannot perturb the result layout.
    parallelFor(points.size(), workers, [&points, &outcomes](std::size_t i) {
        const RunPoint &point = points[i];
        PACACHE_ASSERT(point.trace != nullptr, "run point '",
                       point.label, "' has no trace");
        PACACHE_ASSERT(point.config.observer == nullptr,
                       "per-point observers are not supported "
                       "in parallel sweeps");
        PACACHE_ASSERT(point.config.profiler == nullptr,
                       "per-point profilers are not supported "
                       "in parallel sweeps");
        RunOutcome &out = outcomes[i];
        out.label = point.label;
        const auto start = Clock::now();
        out.result = runExperiment(*point.trace, point.config);
        const std::chrono::duration<double, std::milli> elapsed =
            Clock::now() - start;
        out.wallMs = elapsed.count();
        out.requestsPerSec =
            out.wallMs > 0 ? static_cast<double>(point.trace->size()) *
                                 1000.0 / out.wallMs
                           : 0.0;
    });
    const std::chrono::duration<double, std::milli> sweepElapsed =
        Clock::now() - sweepStart;

    if (metrics) {
        // Recorded serially after the join: MetricRegistry is not
        // thread-safe, and spec order keeps the report deterministic.
        double totalMs = 0;
        uint64_t totalRequests = 0;
        uint64_t accesses = 0;
        LogHistogram energy;
        LogHistogram hitRatio;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const RunOutcome &out = outcomes[i];
            const std::string prefix = "runner." + out.label;
            metrics->gauge(prefix + ".wall_ms").set(out.wallMs);
            metrics->gauge(prefix + ".requests_per_sec")
                .set(out.requestsPerSec);
            totalMs += out.wallMs;
            totalRequests += points[i].trace->size();
            accesses += out.result.cache.accesses;
            energy.record(out.result.totalEnergy);
            hitRatio.record(out.result.cache.hitRatio());
        }
        metrics->gauge("runner.sweep.jobs").set(workers);
        metrics->gauge("runner.sweep.runs")
            .set(static_cast<double>(points.size()));
        metrics->gauge("runner.sweep.wall_ms").set(sweepElapsed.count());
        metrics->gauge("runner.sweep.cpu_ms").set(totalMs);
        metrics->gauge("runner.sweep.requests_per_sec")
            .set(sweepElapsed.count() > 0
                     ? static_cast<double>(totalRequests) * 1000.0 /
                           sweepElapsed.count()
                     : 0.0);
        // Cross-run distributions of simulation-derived values only
        // (never wall clock), so they are byte-identical at any jobs.
        metrics->gauge("runner.sweep.dist.requests_total")
            .set(static_cast<double>(accesses));
        recordDistGauges(*metrics, "runner.sweep.dist.energy_j", energy);
        recordDistGauges(*metrics, "runner.sweep.dist.hit_ratio",
                         hitRatio);
    }
    return outcomes;
}

std::vector<RunOutcome>
runSweep(const SweepSpec &spec, unsigned jobs,
         obs::MetricRegistry *metrics)
{
    const SweepPlan plan(spec);
    return runAll(plan.points(), jobs, metrics);
}

} // namespace pacache::runner
