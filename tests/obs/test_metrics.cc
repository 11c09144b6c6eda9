#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/json_at.hh"
#include "obs/metrics.hh"

namespace pacache::obs
{
namespace
{

using test::at;

TEST(MetricRegistryTest, CounterIsMonotonicAndShared)
{
    MetricRegistry reg;
    Counter &c = reg.counter("disk.0.spinups");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    // Find-or-create returns the same instrument.
    Counter &again = reg.counter("disk.0.spinups");
    EXPECT_EQ(&again, &c);
    again.inc();
    EXPECT_EQ(c.value(), 43u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistryTest, GaugeIsLastWriteWins)
{
    MetricRegistry reg;
    Gauge &g = reg.gauge("cache.hit_ratio");
    g.set(0.25);
    g.set(0.75);
    EXPECT_DOUBLE_EQ(g.value(), 0.75);
}

TEST(MetricRegistryTest, HistogramTracksExactExtremesAndCount)
{
    MetricRegistry reg;
    Histogram &h = reg.histogram("responses.seconds", 1e-4, 1e2);
    for (int i = 1; i <= 100; ++i)
        h.record(i * 0.01); // 0.01 .. 1.00
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.min(), 0.01);
    EXPECT_DOUBLE_EQ(h.max(), 1.00);
    EXPECT_NEAR(h.mean(), 0.505, 1e-9);
}

TEST(MetricRegistryTest, HistogramPercentilesLandInTheRightBins)
{
    MetricRegistry reg;
    Histogram &h = reg.histogram("lat", 1e-4, 1e2);
    for (int i = 1; i <= 1000; ++i)
        h.record(i * 0.001); // uniform over (0, 1]

    // Geometric bins give interpolated quantiles; generous factor-of-
    // bin-width tolerance, not exact equality.
    EXPECT_NEAR(h.percentile(0.50), 0.5, 0.5 * 0.5);
    EXPECT_NEAR(h.percentile(0.95), 0.95, 0.95 * 0.5);
    EXPECT_GT(h.percentile(0.99), h.percentile(0.50));
    EXPECT_LE(h.percentile(1.0), h.max() * 1.5);
}

TEST(MetricRegistryTest, KindCollisionIsFatal)
{
    MetricRegistry reg;
    reg.counter("cache.evictions.total");
    EXPECT_THROW(reg.gauge("cache.evictions.total"), std::runtime_error);
    EXPECT_THROW(reg.histogram("cache.evictions.total"),
                 std::runtime_error);
}

TEST(MetricRegistryTest, DotPrefixCollisionIsFatal)
{
    MetricRegistry reg;
    reg.counter("cache.evictions");
    // Existing name would become both a leaf and an object.
    EXPECT_THROW(reg.counter("cache.evictions.priority"),
                 std::runtime_error);

    // The other direction: new name is a prefix of an existing one.
    reg.counter("wtdu.log.writes");
    EXPECT_THROW(reg.counter("wtdu.log"), std::runtime_error);

    // Sibling leaves under a shared object are fine.
    EXPECT_NO_THROW(reg.counter("wtdu.log.recycles"));
}

TEST(MetricRegistryTest, MalformedNamesAreFatal)
{
    MetricRegistry reg;
    EXPECT_THROW(reg.counter(""), std::runtime_error);
    EXPECT_THROW(reg.counter(".leading"), std::runtime_error);
    EXPECT_THROW(reg.counter("trailing."), std::runtime_error);
    EXPECT_THROW(reg.counter("empty..segment"), std::runtime_error);
}

TEST(MetricRegistryTest, JsonSnapshotNestsAlongDots)
{
    MetricRegistry reg;
    reg.counter("disk.0.spinups").inc(3);
    reg.counter("disk.1.spinups").inc(5);
    reg.gauge("cache.hit_ratio").set(0.5);
    reg.counter("total").inc(7);
    reg.histogram("lat", 1e-3, 1e3).record(2.0);

    std::ostringstream os;
    reg.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());

    ASSERT_TRUE(doc.isObject());
    EXPECT_DOUBLE_EQ(at(doc, "disk", "0", "spinups").asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(at(doc, "disk", "1", "spinups").asNumber(), 5.0);
    EXPECT_DOUBLE_EQ(at(doc, "cache", "hit_ratio").asNumber(), 0.5);
    EXPECT_DOUBLE_EQ(at(doc, "total").asNumber(), 7.0);
    const JsonValue &lat = at(doc, "lat");
    ASSERT_TRUE(lat.isObject());
    EXPECT_DOUBLE_EQ(at(lat, "count").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(at(lat, "min").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(at(lat, "max").asNumber(), 2.0);
}

TEST(MetricRegistryTest, TextSnapshotIsFlatAndNameOrdered)
{
    MetricRegistry reg;
    reg.counter("b.two").inc(2);
    reg.counter("a.one").inc(1);
    reg.gauge("c").set(3.5);

    std::ostringstream os;
    reg.writeText(os);
    EXPECT_EQ(os.str(), "a.one 1\nb.two 2\nc 3.5\n");
}

TEST(MetricRegistryTest, TextSnapshotExpandsHistograms)
{
    MetricRegistry reg;
    reg.histogram("lat", 1e-3, 1e3).record(1.0);

    std::ostringstream os;
    reg.writeText(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("lat.count 1"), std::string::npos);
    EXPECT_NE(text.find("lat.mean"), std::string::npos);
    EXPECT_NE(text.find("lat.p50"), std::string::npos);
    EXPECT_NE(text.find("lat.p95"), std::string::npos);
    EXPECT_NE(text.find("lat.p99"), std::string::npos);
    EXPECT_NE(text.find("lat.max"), std::string::npos);
}

TEST(MetricRegistryTest, PrometheusExpositionIsFlatAndSanitized)
{
    MetricRegistry reg;
    reg.counter("disk.0.spinups").inc(3);
    reg.gauge("cache.hit_ratio").set(0.5);

    std::ostringstream os;
    reg.writePrometheus(os);
    EXPECT_EQ(os.str(), "# TYPE cache_hit_ratio gauge\n"
                        "cache_hit_ratio 0.5\n"
                        "# TYPE disk_0_spinups counter\n"
                        "disk_0_spinups 3\n");
}

TEST(MetricRegistryTest, PrometheusExpandsHistogramsToGaugeLeaves)
{
    MetricRegistry reg;
    reg.histogram("lat", 1e-3, 1e3).record(1.0);

    std::ostringstream os;
    reg.writePrometheus(os);
    const std::string text = os.str();
    for (const char *leaf :
         {"lat_count ", "lat_mean ", "lat_p50 ", "lat_p95 ",
          "lat_p99 ", "lat_max "}) {
        EXPECT_NE(text.find(leaf), std::string::npos) << leaf;
        EXPECT_NE(text.find(std::string("# TYPE ") +
                            std::string(leaf).substr(
                                0, std::string(leaf).size() - 1) +
                            " gauge"),
                  std::string::npos)
            << leaf;
    }
}

/**
 * Round trip: every non-comment exposition line is "name value" with
 * a sanitized name, parses back as a double, and matches the live
 * instrument it came from.
 */
TEST(MetricRegistryTest, PrometheusRoundTripsValues)
{
    MetricRegistry reg;
    reg.counter("runner.sweep.runs").inc(12);
    reg.gauge("run.wall_ms").set(431.25);
    reg.gauge("9starts.with.digit").set(-1.5);

    std::ostringstream os;
    reg.writePrometheus(os);

    std::map<std::string, double> parsed;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string name = line.substr(0, space);
        for (const char c : name) {
            const bool ok = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '_';
            EXPECT_TRUE(ok) << "unsanitized char in " << name;
        }
        EXPECT_FALSE(name[0] >= '0' && name[0] <= '9') << name;
        parsed[name] = std::stod(line.substr(space + 1));
    }
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_DOUBLE_EQ(parsed.at("runner_sweep_runs"), 12.0);
    EXPECT_DOUBLE_EQ(parsed.at("run_wall_ms"), 431.25);
    EXPECT_DOUBLE_EQ(parsed.at("_9starts_with_digit"), -1.5);
}

} // namespace
} // namespace pacache::obs
