#include <gtest/gtest.h>

#include <sstream>

#include "support/json_at.hh"
#include "stats/energy_stats.hh"
#include "stats/response_stats.hh"

namespace pacache
{
namespace
{

using test::at;

TEST(EnergyStatsTest, TotalsSumAllParts)
{
    EnergyStats s(3);
    s.idleEnergyPerMode = {10.0, 20.0, 30.0};
    s.timePerMode = {1.0, 2.0, 3.0};
    s.serviceEnergy = 5.0;
    s.busyTime = 0.5;
    s.spinUpEnergy = 7.0;
    s.spinDownEnergy = 2.0;
    s.spinUpTime = 0.25;
    s.spinDownTime = 0.25;
    EXPECT_DOUBLE_EQ(s.total(), 74.0);
    EXPECT_DOUBLE_EQ(s.totalTime(), 7.0);
    EXPECT_DOUBLE_EQ(s.transitionTime(), 0.5);
}

TEST(EnergyStatsTest, AccumulateMergesEverything)
{
    EnergyStats a(2), b(2);
    a.idleEnergyPerMode = {1.0, 2.0};
    b.idleEnergyPerMode = {10.0, 20.0};
    a.spinUps = 3;
    b.spinUps = 4;
    a.requests = 7;
    b.requests = 5;
    a += b;
    EXPECT_DOUBLE_EQ(a.idleEnergyPerMode[0], 11.0);
    EXPECT_DOUBLE_EQ(a.idleEnergyPerMode[1], 22.0);
    EXPECT_EQ(a.spinUps, 7u);
    EXPECT_EQ(a.requests, 12u);
}

TEST(EnergyStatsTest, AccumulateGrowsModeVector)
{
    EnergyStats a(1), b(3);
    b.idleEnergyPerMode = {1.0, 2.0, 3.0};
    a += b;
    ASSERT_EQ(a.idleEnergyPerMode.size(), 3u);
    EXPECT_DOUBLE_EQ(a.idleEnergyPerMode[2], 3.0);
}

TEST(ResponseStatsTest, EmptyIsZero)
{
    ResponseStats r;
    EXPECT_EQ(r.count(), 0u);
    EXPECT_DOUBLE_EQ(r.mean(), 0.0);
    EXPECT_DOUBLE_EQ(r.max(), 0.0);
    EXPECT_DOUBLE_EQ(r.percentile(0.5), 0.0);
}

TEST(ResponseStatsTest, MeanMaxPercentiles)
{
    ResponseStats r;
    for (int i = 1; i <= 100; ++i)
        r.record(static_cast<Time>(i));
    EXPECT_EQ(r.count(), 100u);
    EXPECT_DOUBLE_EQ(r.mean(), 50.5);
    EXPECT_DOUBLE_EQ(r.max(), 100.0);
    // Percentiles come from the log-bucketed histogram: within 1%
    // of the exact nearest-rank sample, with the extremes pinned to
    // the exact min/max by the clamp.
    EXPECT_NEAR(r.percentile(0.5), 50.0, 0.5);
    EXPECT_NEAR(r.percentile(0.95), 95.0, 0.95);
    EXPECT_DOUBLE_EQ(r.percentile(1.0), 100.0);
    EXPECT_NEAR(r.percentile(0.0), 1.0, 0.01);
}

TEST(ResponseStatsTest, PercentileWorksAfterMoreRecords)
{
    // Percentiles must reflect samples recorded after earlier
    // percentile queries.
    ResponseStats r;
    r.record(5.0);
    EXPECT_DOUBLE_EQ(r.percentile(0.5), 5.0);
    r.record(1.0);
    EXPECT_NEAR(r.percentile(0.0), 1.0, 0.01);
}

TEST(ResponseStatsTest, MergeCombinesSamples)
{
    ResponseStats a, b;
    a.record(1.0);
    a.record(2.0);
    b.record(10.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.max(), 10.0);
    EXPECT_NEAR(a.mean(), 13.0 / 3.0, 1e-12);
}

TEST(EnergyStatsTest, WriteJsonRoundTripsTheBreakdown)
{
    EnergyStats s(2);
    s.idleEnergyPerMode = {10.0, 20.0};
    s.timePerMode = {1.0, 2.0};
    s.serviceEnergy = 5.0;
    s.busyTime = 0.5;
    s.spinUpEnergy = 7.0;
    s.spinDownEnergy = 2.0;
    s.spinUps = 3;
    s.spinDowns = 4;
    s.requests = 11;

    std::ostringstream os;
    const std::vector<std::string> modes{"idle", "standby"};
    s.writeJson(os, &modes);
    const JsonValue doc = JsonValue::parse(os.str());
    EXPECT_DOUBLE_EQ(at(doc, "total_joules").asNumber(), s.total());
    EXPECT_DOUBLE_EQ(at(doc, "service_joules").asNumber(), 5.0);
    EXPECT_DOUBLE_EQ(
        at(doc, "idle_energy_per_mode_j", "idle").asNumber(), 10.0);
    EXPECT_DOUBLE_EQ(
        at(doc, "idle_energy_per_mode_j", "standby").asNumber(), 20.0);
    EXPECT_DOUBLE_EQ(at(doc, "time_per_mode_s", "standby").asNumber(),
                     2.0);
    EXPECT_DOUBLE_EQ(at(doc, "spinups").asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(at(doc, "requests").asNumber(), 11.0);
}

TEST(EnergyStatsTest, WriteJsonWithoutModeNamesUsesArrays)
{
    EnergyStats s(2);
    s.idleEnergyPerMode = {1.0, 2.0};

    std::ostringstream os;
    s.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    ASSERT_TRUE(at(doc, "idle_energy_per_mode_j").isArray());
    ASSERT_EQ(at(doc, "idle_energy_per_mode_j").asArray().size(), 2u);
    EXPECT_DOUBLE_EQ(at(doc, "idle_energy_per_mode_j").asArray()[1].asNumber(),
                     2.0);
}

TEST(EnergyStatsTest, StreamOperatorSummarizes)
{
    EnergyStats s(1);
    s.idleEnergyPerMode = {4.0};
    s.serviceEnergy = 6.0;
    s.spinUps = 2;

    std::ostringstream os;
    os << s;
    EXPECT_NE(os.str().find("energy 10 J"), std::string::npos);
    EXPECT_NE(os.str().find("2 spin-ups"), std::string::npos);
}

TEST(ResponseStatsTest, WriteJsonReportsPercentilesAndSum)
{
    ResponseStats r;
    for (int i = 1; i <= 100; ++i)
        r.record(static_cast<double>(i));

    std::ostringstream os;
    r.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    EXPECT_DOUBLE_EQ(at(doc, "count").asNumber(), 100.0);
    EXPECT_DOUBLE_EQ(at(doc, "sum_s").asNumber(), 5050.0);
    EXPECT_DOUBLE_EQ(at(doc, "mean_ms").asNumber(), 50.5 * 1e3);
    EXPECT_NEAR(at(doc, "p50_ms").asNumber(), 50.0 * 1e3, 500.0);
    EXPECT_NEAR(at(doc, "p95_ms").asNumber(), 95.0 * 1e3, 950.0);
    EXPECT_DOUBLE_EQ(at(doc, "max_s").asNumber(), 100.0);
}

TEST(ResponseStatsTest, StreamOperatorSummarizes)
{
    ResponseStats r;
    r.record(2.0);

    std::ostringstream os;
    os << r;
    EXPECT_NE(os.str().find("1 responses"), std::string::npos);
    EXPECT_NE(os.str().find("max 2 s"), std::string::npos);
}

} // namespace
} // namespace pacache
