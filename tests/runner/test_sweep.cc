#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.hh"
#include "obs/metrics.hh"
#include "runner/sweep.hh"
#include "util/log_histogram.hh"

namespace pacache::runner
{
namespace
{

/** Serialize everything a figure would consume, byte-exactly. */
std::string
serializeOutcomes(const std::vector<RunOutcome> &outcomes)
{
    std::ostringstream os;
    for (const RunOutcome &o : outcomes) {
        os << "=== " << o.label << " ===\n";
        printSummaryReport(os, o.result);
        printPerDiskReport(os, o.result);
        os << "totalEnergy=" << o.result.totalEnergy
           << " logWrites=" << o.result.logWrites
           << " prefetched=" << o.result.prefetchedBlocks << '\n';
    }
    return os.str();
}

TEST(SweepSpec, FromJsonParsesEveryAxis)
{
    const SweepSpec spec = SweepSpec::fromJsonText(R"({
        "name": "fig6-mini",
        "workloads": ["oltp", "cello"],
        "policies": ["lru", "pa-lru", "opg"],
        "cache_blocks": [512, 1024],
        "dpms": ["practical", "oracle"],
        "write_policies": ["wb", "wtdu"],
        "duration": 60
    })");
    EXPECT_EQ(spec.name, "fig6-mini");
    ASSERT_EQ(spec.workloads.size(), 2u);
    EXPECT_EQ(spec.workloads[1], "cello");
    ASSERT_EQ(spec.policies.size(), 3u);
    EXPECT_EQ(spec.policies[1], PolicyKind::PALRU);
    EXPECT_EQ(spec.policies[2], PolicyKind::OPG);
    ASSERT_EQ(spec.cacheBlocks.size(), 2u);
    EXPECT_EQ(spec.cacheBlocks[0], 512u);
    ASSERT_EQ(spec.dpms.size(), 2u);
    EXPECT_EQ(spec.dpms[1], DpmChoice::Oracle);
    ASSERT_EQ(spec.writePolicies.size(), 2u);
    EXPECT_EQ(spec.writePolicies[1],
              WritePolicy::WriteThroughDeferredUpdate);
    EXPECT_DOUBLE_EQ(spec.duration, 60.0);
    EXPECT_EQ(spec.points(), 2u * 3u * 2u * 2u * 2u);
}

TEST(SweepSpec, MissingAxesGetDefaults)
{
    const SweepSpec spec =
        SweepSpec::fromJsonText(R"({"policies": ["fifo"]})");
    EXPECT_EQ(spec.workloads, std::vector<std::string>{"oltp"});
    ASSERT_EQ(spec.policies.size(), 1u);
    EXPECT_EQ(spec.policies[0], PolicyKind::FIFO);
    EXPECT_EQ(spec.cacheBlocks, std::vector<std::size_t>{1024});
    EXPECT_EQ(spec.points(), 1u);
}

TEST(SweepSpec, NegativeFractionalOrHugeCountsAreFatal)
{
    for (const char *bad :
         {R"({"cache_blocks": [-5]})", R"({"cache_blocks": [1.5]})",
          R"({"cache_blocks": [1e30]})",
          R"({"oracle_mem_budget_mb": -1})",
          R"({"oracle_mem_budget_mb": 0.5})",
          R"({"oracle_mem_budget_mb": 17592186044416})"}) {
        EXPECT_THROW(SweepSpec::fromJsonText(bad), std::runtime_error)
            << bad;
    }
    // The largest budget whose MiB-to-byte shift cannot wrap.
    EXPECT_EQ(SweepSpec::fromJsonText(
                  R"({"oracle_mem_budget_mb": 17592186044415})")
                  .oracleMemBudgetMb,
              (std::size_t{1} << 44) - 1);
}

TEST(SweepSpec, UnknownKeyIsFatal)
{
    EXPECT_THROW(SweepSpec::fromJsonText(R"({"polices": ["lru"]})"),
                 std::exception);
    EXPECT_THROW(SweepSpec::fromJsonText(R"({"policies": []})"),
                 std::exception);
    EXPECT_THROW(SweepSpec::fromJsonText(R"({"policies": ["zap"]})"),
                 std::exception);
}

TEST(SweepPlan, ExpansionOrderIsStable)
{
    SweepSpec spec;
    spec.workloads = {"opg-showcase"};
    spec.policies = {PolicyKind::LRU, PolicyKind::FIFO};
    spec.cacheBlocks = {64, 128};
    spec.dpms = {DpmChoice::Practical};
    spec.writePolicies = {WritePolicy::WriteBack};
    spec.duration = 30;

    const SweepPlan plan(spec);
    ASSERT_EQ(plan.points().size(), 4u);
    EXPECT_EQ(plan.points()[0].label,
              "opg-showcase/lru/c64/practical/wb");
    EXPECT_EQ(plan.points()[1].label,
              "opg-showcase/lru/c128/practical/wb");
    EXPECT_EQ(plan.points()[2].label,
              "opg-showcase/fifo/c64/practical/wb");
    EXPECT_EQ(plan.points()[3].label,
              "opg-showcase/fifo/c128/practical/wb");
    // All four points share one materialized trace.
    EXPECT_EQ(plan.points()[0].trace, plan.points()[3].trace);
    EXPECT_FALSE(plan.points()[0].trace->empty());
}

/**
 * The acceptance bar for the parallel runner: jobs=8 must reproduce
 * jobs=1 byte-for-byte, including the off-line policies (Belady,
 * OPG) and the stateful on-line one (PA-LRU).
 */
TEST(SweepRunner, ParallelMatchesSerialByteForByte)
{
    SweepSpec spec;
    spec.name = "determinism";
    spec.workloads = {"opg-showcase", "oltp"};
    spec.policies = {PolicyKind::LRU, PolicyKind::PALRU,
                     PolicyKind::OPG, PolicyKind::Belady};
    spec.cacheBlocks = {110};
    spec.dpms = {DpmChoice::Practical};
    spec.writePolicies = {WritePolicy::WriteBack};
    spec.duration = 120;

    const std::string serial =
        serializeOutcomes(runSweep(spec, /*jobs=*/1));
    const std::string parallel =
        serializeOutcomes(runSweep(spec, /*jobs=*/8));
    EXPECT_EQ(serial, parallel);

    // And again: the parallel path must also agree with itself.
    const std::string parallelAgain =
        serializeOutcomes(runSweep(spec, /*jobs=*/8));
    EXPECT_EQ(parallel, parallelAgain);
}

TEST(SweepRunner, RecordsPerRunAndAggregateMetrics)
{
    SweepSpec spec;
    spec.workloads = {"opg-showcase"};
    spec.policies = {PolicyKind::LRU};
    spec.cacheBlocks = {64};
    spec.dpms = {DpmChoice::Practical};
    spec.writePolicies = {WritePolicy::WriteBack};
    spec.duration = 30;

    obs::MetricRegistry metrics;
    const auto outcomes = runSweep(spec, 2, &metrics);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_GT(outcomes[0].wallMs, 0.0);
    EXPECT_GT(outcomes[0].requestsPerSec, 0.0);

    const std::string prefix =
        "runner.opg-showcase/lru/c64/practical/wb";
    EXPECT_DOUBLE_EQ(metrics.gauge(prefix + ".wall_ms").value(),
                     outcomes[0].wallMs);
    EXPECT_DOUBLE_EQ(metrics.gauge("runner.sweep.jobs").value(), 2.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("runner.sweep.runs").value(), 1.0);
    EXPECT_GT(metrics.gauge("runner.sweep.wall_ms").value(), 0.0);
}

/** Every "runner.sweep.dist.*" line of a sweep's metric snapshot. */
std::string
distLines(const SweepSpec &spec, unsigned jobs)
{
    obs::MetricRegistry metrics;
    runSweep(spec, jobs, &metrics);
    std::ostringstream os;
    metrics.writeText(os);
    std::istringstream in(os.str());
    std::string out;
    for (std::string line; std::getline(in, line);)
        if (line.rfind("runner.sweep.dist.", 0) == 0)
            out += line + '\n';
    return out;
}

TEST(SweepRunner, DistGaugesAreByteIdenticalAcrossJobCounts)
{
    SweepSpec spec;
    spec.workloads = {"opg-showcase", "oltp"};
    spec.policies = {PolicyKind::LRU, PolicyKind::PALRU,
                     PolicyKind::ARC};
    spec.cacheBlocks = {64, 256};
    spec.dpms = {DpmChoice::Practical};
    spec.writePolicies = {WritePolicy::WriteBack};
    spec.duration = 60;

    const std::string one = distLines(spec, 1);
    // requests_total plus seven leaves for each of the two groups.
    EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 15);
    EXPECT_NE(one.find("runner.sweep.dist.energy_j.count 12"),
              std::string::npos)
        << one;
    EXPECT_EQ(distLines(spec, 4), one);
    EXPECT_EQ(distLines(spec, 8), one);
}

TEST(RecordDistGaugesTest, EmitsTheExpectedLeaves)
{
    LogHistogram hist;
    for (int i = 1; i <= 100; ++i)
        hist.record(i * 0.01);
    obs::MetricRegistry registry;
    recordDistGauges(registry, "runner.sweep.dist.energy_j", hist);

    std::ostringstream os;
    registry.writeText(os);
    const std::string text = os.str();
    for (const char *leaf : {".count ", ".mean ", ".p50 ", ".p95 ",
                             ".p99 ", ".min ", ".max "}) {
        EXPECT_NE(text.find(std::string("runner.sweep.dist.energy_j") +
                            leaf),
                  std::string::npos)
            << leaf;
    }
    EXPECT_NE(text.find(".count 100"), std::string::npos);
}

} // namespace
} // namespace pacache::runner
