#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "core/experiment.hh"
#include "support/json_at.hh"
#include "obs/observer.hh"
#include "obs/timeline.hh"
#include "trace/synthetic.hh"

namespace pacache::obs
{
namespace
{

using test::at;

Trace
smallTrace(uint64_t seed = 1, double interarrival_ms = 100.0)
{
    SyntheticParams p;
    p.numRequests = 3000;
    p.numDisks = 4;
    p.arrival = ArrivalModel::exponential(interarrival_ms);
    p.writeRatio = 0.2;
    p.address.footprintBlocks = 500;
    p.seed = seed;
    return generateSynthetic(p);
}

/** Sink that keeps every row for post-run reconciliation. */
class CollectingSink : public TimelineSink
{
  public:
    void emit(const TimelineRow &row) override { rows.push_back(row); }

    std::vector<TimelineRow> rows;
};

/**
 * Replay smallTrace(1, @p interarrival_ms) through PA-LRU under @p dpm
 * with a 30 s timeline, check that the rows' column sums reconcile
 * with the end-of-run aggregates, and hand the run's result back in
 * @p r.
 */
void
expectRowSumsReconcile(DpmChoice dpm, double interarrival_ms,
                       ExperimentResult &r)
{
    const Trace t = smallTrace(1, interarrival_ms);

    SimObserver observer;
    CollectingSink sink;
    observer.attachTimeline(&sink, 30.0);

    ExperimentConfig cfg;
    cfg.cacheBlocks = 256;
    cfg.policy = PolicyKind::PALRU;
    cfg.dpm = dpm;
    cfg.pa.epochLength = 60.0;
    cfg.observer = &observer;
    r = runExperiment(t, cfg);

    ASSERT_GT(sink.rows.size(), 1u);

    uint64_t accesses = 0, hits = 0, spin_ups = 0, spin_downs = 0;
    uint64_t resp_count = 0;
    double resp_sum = 0;
    Energy energy = 0;
    std::vector<uint64_t> misses(r.diskAccesses.size(), 0);
    for (const TimelineRow &row : sink.rows) {
        accesses += row.accesses;
        hits += row.hits;
        spin_ups += row.spinUps;
        spin_downs += row.spinDowns;
        resp_count += row.responseCount;
        resp_sum += row.responseSum;
        energy += row.totalEnergy();
        ASSERT_EQ(row.missesPerDisk.size(), misses.size());
        for (std::size_t d = 0; d < misses.size(); ++d)
            misses[d] += row.missesPerDisk[d];
    }

    // Every row is a delta of consecutive cumulative snapshots and a
    // final row flushes the remainder at the horizon, so the sums
    // telescope to the end-of-run aggregates.
    EXPECT_EQ(accesses, r.cache.accesses);
    EXPECT_EQ(hits, r.cache.hits);
    EXPECT_EQ(spin_ups, r.energy.spinUps);
    EXPECT_EQ(spin_downs, r.energy.spinDowns);
    EXPECT_EQ(resp_count, r.responses.count());
    EXPECT_NEAR(resp_sum, r.responses.sum(), 1e-6);
    EXPECT_NEAR(energy, r.energy.total(),
                1e-6 * std::max(1.0, r.energy.total()));
    for (std::size_t d = 0; d < misses.size(); ++d)
        EXPECT_EQ(misses[d], r.diskAccesses[d]) << "disk " << d;
}

TEST(TimelineConsistencyTest, RowSumsReconcileWithFinalAggregates)
{
    ExperimentResult r;
    expectRowSumsReconcile(DpmChoice::Practical, 100.0, r);
}

TEST(TimelineConsistencyTest, OracleRowSumsReconcileWithFinalAggregates)
{
    // Oracle DPM prices each idle gap as it closes, and the final row
    // follows the trailing gap's pricing at finalize. Sparse arrivals
    // leave gaps long enough for spin-ups inside the rows.
    ExperimentResult r;
    expectRowSumsReconcile(DpmChoice::Oracle, 2000.0, r);
    EXPECT_GT(r.energy.spinUps, 0u);
}

TEST(TimelineConsistencyTest, RowsTileTheSimulatedTimeAxis)
{
    const Trace t = smallTrace(7);

    SimObserver observer;
    CollectingSink sink;
    observer.attachTimeline(&sink, 25.0);

    ExperimentConfig cfg;
    cfg.cacheBlocks = 128;
    cfg.observer = &observer;
    runExperiment(t, cfg);

    ASSERT_FALSE(sink.rows.empty());
    EXPECT_DOUBLE_EQ(sink.rows.front().tStart, 0.0);
    for (std::size_t i = 0; i < sink.rows.size(); ++i) {
        EXPECT_EQ(sink.rows[i].index, i);
        EXPECT_GT(sink.rows[i].tEnd, sink.rows[i].tStart);
        if (i > 0) {
            EXPECT_DOUBLE_EQ(sink.rows[i].tStart,
                             sink.rows[i - 1].tEnd);
        }
    }
}

TEST(TimelineWriterTest, JsonlRowsParseAndCarryTheRowFields)
{
    TimelineRow row;
    row.index = 2;
    row.tStart = 60.0;
    row.tEnd = 90.0;
    row.accesses = 100;
    row.hits = 40;
    row.missesPerDisk = {30, 30};
    row.idleEnergyPerMode = {5.0, 2.5};
    row.serviceEnergy = 1.5;
    row.spinUpEnergy = 3.0;
    row.spinDownEnergy = 0.5;
    row.spinUps = 2;
    row.spinDowns = 3;
    row.responseCount = 100;
    row.responseSum = 0.25;
    row.prioritySet = {0};

    std::ostringstream os;
    TimelineWriter writer(os, TimelineWriter::Format::Jsonl);
    writer.emit(row);

    const JsonValue doc = JsonValue::parse(os.str());
    EXPECT_DOUBLE_EQ(at(doc, "epoch").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(at(doc, "t_start").asNumber(), 60.0);
    EXPECT_DOUBLE_EQ(at(doc, "t_end").asNumber(), 90.0);
    EXPECT_DOUBLE_EQ(at(doc, "accesses").asNumber(), 100.0);
    EXPECT_DOUBLE_EQ(at(doc, "hit_ratio").asNumber(), 0.4);
    EXPECT_DOUBLE_EQ(at(doc, "total_energy_j").asNumber(), 12.5);
    EXPECT_DOUBLE_EQ(at(doc, "mean_response_ms").asNumber(), 2.5);
    ASSERT_EQ(at(doc, "misses_per_disk").asArray().size(), 2u);
    ASSERT_EQ(at(doc, "priority_disks").asArray().size(), 1u);
    EXPECT_DOUBLE_EQ(at(doc, "priority_disks").asArray()[0].asNumber(), 0.0);
}

TEST(TimelineWriterTest, CsvHasOneHeaderAndMatchingColumns)
{
    TimelineRow row;
    row.tEnd = 30.0;
    row.accesses = 10;
    row.hits = 5;
    row.missesPerDisk = {5};
    row.idleEnergyPerMode = {1.0};

    std::ostringstream os;
    TimelineWriter writer(os, TimelineWriter::Format::Csv);
    writer.emit(row);
    row.index = 1;
    row.tStart = 30.0;
    row.tEnd = 60.0;
    writer.emit(row);

    std::istringstream in(os.str());
    std::string header, row1, row2, extra;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row1));
    ASSERT_TRUE(std::getline(in, row2));
    EXPECT_FALSE(std::getline(in, extra));

    const auto columns = [](const std::string &line) {
        return std::count(line.begin(), line.end(), ',') + 1;
    };
    EXPECT_EQ(columns(header), columns(row1));
    EXPECT_EQ(columns(header), columns(row2));
    EXPECT_EQ(header.substr(0, 5), "epoch");
}

TEST(TimelineWriterTest, FormatFollowsTheFileExtension)
{
    EXPECT_EQ(TimelineWriter::formatForPath("out.csv"),
              TimelineWriter::Format::Csv);
    EXPECT_EQ(TimelineWriter::formatForPath("out.jsonl"),
              TimelineWriter::Format::Jsonl);
    EXPECT_EQ(TimelineWriter::formatForPath("out"),
              TimelineWriter::Format::Jsonl);
    EXPECT_EQ(TimelineWriter::formatForPath("dir.csv/out.jsonl"),
              TimelineWriter::Format::Jsonl);
}

} // namespace
} // namespace pacache::obs
