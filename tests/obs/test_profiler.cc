#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/json_at.hh"
#include "obs/profiler.hh"
#include "obs/trace_writer.hh"

namespace pacache::obs
{
namespace
{

using test::at;

TEST(ProfilerTest, AggregatesPhasesInFirstEnteredOrder)
{
    Profiler prof;
    {
        const ProfileScope a(&prof, "ingest");
    }
    {
        const ProfileScope b(&prof, "replay");
    }
    {
        const ProfileScope c(&prof, "replay");
    }
    const auto phases = prof.phases();
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].name, "ingest");
    EXPECT_EQ(phases[0].calls, 1u);
    EXPECT_EQ(phases[1].name, "replay");
    EXPECT_EQ(phases[1].calls, 2u);
}

TEST(ProfilerTest, SelfTimeExcludesChildren)
{
    Profiler prof;
    prof.enter("outer");
    prof.enter("inner");
    prof.exit();
    prof.exit();

    const auto phases = prof.phases();
    ASSERT_EQ(phases.size(), 2u);
    const ProfilePhase &outer = phases[0];
    const ProfilePhase &inner = phases[1];
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(inner.name, "inner");
    // outer total covers inner total; outer self excludes it.
    EXPECT_GE(outer.totalSeconds, inner.totalSeconds);
    EXPECT_NEAR(outer.selfSeconds,
                outer.totalSeconds - inner.totalSeconds, 1e-9);
    EXPECT_GE(inner.selfSeconds, 0.0);
    EXPECT_DOUBLE_EQ(inner.selfSeconds, inner.totalSeconds);
}

TEST(ProfilerTest, NullScopeIsANoOp)
{
    // Must not crash and must not need a profiler at all.
    const ProfileScope scope(nullptr, "anything");
}

TEST(ProfilerTest, EmitTracePutsSpansOnTheProfilerTrack)
{
    Profiler prof;
    prof.enter("replay");
    prof.exit();

    TraceEventWriter trace;
    prof.emitTrace(trace);
    std::ostringstream os;
    trace.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    const auto &events = at(doc, "traceEvents").asArray();
    ASSERT_EQ(events.size(), 2u); // track metadata + one span
    EXPECT_EQ(at(events[0], "ph").asString(), "M");
    EXPECT_EQ(at(events[1], "ph").asString(), "X");
    EXPECT_EQ(at(events[1], "name").asString(), "replay");
    EXPECT_DOUBLE_EQ(at(events[1], "tid").asNumber(),
                     static_cast<double>(Profiler::kProfileTrack));
    EXPECT_GE(at(events[1], "dur").asNumber(), 0.0);
}

TEST(ProfilerTest, SummaryListsEveryPhase)
{
    Profiler prof;
    {
        const ProfileScope a(&prof, "oracle_precompute");
    }
    {
        const ProfileScope b(&prof, "replay");
    }
    std::ostringstream os;
    prof.writeSummary(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("profile"), std::string::npos);
    EXPECT_NE(text.find("oracle_precompute"), std::string::npos);
    EXPECT_NE(text.find("replay"), std::string::npos);
}

TEST(ProfilerTest, EmptyProfilerProducesEmptyPhasesAndSummary)
{
    Profiler prof;
    EXPECT_TRUE(prof.phases().empty());
    EXPECT_GE(prof.elapsed(), 0.0);
    std::ostringstream os;
    prof.writeSummary(os); // must not crash on zero phases
    TraceEventWriter trace;
    prof.emitTrace(trace);
    std::ostringstream json;
    trace.writeJson(json);
    EXPECT_TRUE(JsonValue::parse(json.str()).isObject());
}

} // namespace
} // namespace pacache::obs
