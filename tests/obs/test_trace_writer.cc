#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/json_at.hh"
#include "obs/trace_writer.hh"

namespace pacache::obs
{
namespace
{

using test::at;

TEST(TraceEventWriterTest, EmitsValidJsonDocument)
{
    TraceEventWriter w;
    w.setTrackName(0, "disk 0");
    w.complete(0, "idle", 0.0, 1.5);
    w.instant(0, "spin-up", 1.5, "event", {{"from", "idle"}});

    std::ostringstream os;
    w.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(at(doc, "traceEvents").isArray());
    EXPECT_EQ(at(doc, "traceEvents").asArray().size(), 3u);
}

TEST(TraceEventWriterTest, TimestampsAreNonDecreasing)
{
    TraceEventWriter w;
    // Duration events are recorded when they close, so insertion
    // order is not timestamp order; the writer must sort.
    w.complete(0, "busy", 5.0, 7.0);
    w.complete(1, "idle", 0.0, 6.0);
    w.instant(0, "spin-down", 2.5);
    w.complete(0, "NAP1", 1.0, 2.0);

    std::ostringstream os;
    w.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());

    double prev = -1.0;
    for (const auto &ev : at(doc, "traceEvents").asArray()) {
        const double ts = at(ev, "ts").asNumber();
        EXPECT_GE(ts, prev) << "ts regressed";
        prev = ts;
    }
    // Spot-check microsecond conversion.
    const auto &events = at(doc, "traceEvents").asArray();
    EXPECT_DOUBLE_EQ(at(events.front(), "ts").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(at(events.back(), "ts").asNumber(), 5.0e6);
}

TEST(TraceEventWriterTest, MetadataSortsFirstRegardlessOfWhenNamed)
{
    TraceEventWriter w;
    w.complete(0, "busy", 0.0, 1.0);
    w.setTrackName(0, "disk 0"); // named late, must still lead

    std::ostringstream os;
    w.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    const auto &events = at(doc, "traceEvents").asArray();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(at(events[0], "ph").asString(), "M");
    EXPECT_EQ(at(events[0], "name").asString(), "thread_name");
    EXPECT_EQ(at(events[0], "args", "name").asString(), "disk 0");
    EXPECT_EQ(at(events[1], "ph").asString(), "X");
}

TEST(TraceEventWriterTest, EventShapesMatchTheTraceFormat)
{
    TraceEventWriter w;
    w.complete(3, "standby", 1.0, 4.0, "power");
    w.instant(3, "spin-up", 4.0, "event", {{"target", "full"}});

    std::ostringstream os;
    w.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    const auto &events = at(doc, "traceEvents").asArray();
    ASSERT_EQ(events.size(), 2u);

    const JsonValue &dur = events[0];
    EXPECT_EQ(at(dur, "ph").asString(), "X");
    EXPECT_EQ(at(dur, "cat").asString(), "power");
    EXPECT_DOUBLE_EQ(at(dur, "tid").asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(at(dur, "ts").asNumber(), 1.0e6);
    EXPECT_DOUBLE_EQ(at(dur, "dur").asNumber(), 3.0e6);

    const JsonValue &inst = events[1];
    EXPECT_EQ(at(inst, "ph").asString(), "i");
    EXPECT_EQ(at(inst, "s").asString(), "t");
    EXPECT_EQ(inst.find("dur"), nullptr);
    EXPECT_EQ(at(inst, "args", "target").asString(), "full");
}

TEST(TraceEventWriterTest, WriteJsonIsIdempotent)
{
    TraceEventWriter w;
    w.complete(0, "busy", 2.0, 3.0);
    w.complete(0, "idle", 0.0, 2.0);

    std::ostringstream first, second;
    w.writeJson(first);
    w.writeJson(second);
    EXPECT_EQ(first.str(), second.str());
    EXPECT_EQ(w.eventCount(), 2u);
}

TEST(TraceEventWriterTest, NamesWithSpecialCharactersStayValid)
{
    TraceEventWriter w;
    w.instant(0, "flip \"P\"\n", 0.5);

    std::ostringstream os;
    w.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    EXPECT_EQ(at(at(doc, "traceEvents").asArray()[0], "name").asString(),
              "flip \"P\"\n");
}

TEST(TraceEventWriterTest, TrackNamesWithSpecialCharactersStayValid)
{
    TraceEventWriter w;
    w.setTrackName(0, "disk \"0\"\t\\backslash");
    w.complete(0, "busy", 0.0, 1.0);

    std::ostringstream os;
    w.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    const auto &events = at(doc, "traceEvents").asArray();
    EXPECT_EQ(at(events[0], "args", "name").asString(),
              "disk \"0\"\t\\backslash");
}

TEST(TraceEventWriterTest, ZeroDurationSpansAreKept)
{
    TraceEventWriter w;
    w.complete(0, "instant-phase", 2.0, 2.0);

    std::ostringstream os;
    w.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    const auto &events = at(doc, "traceEvents").asArray();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(at(events[0], "ph").asString(), "X");
    EXPECT_DOUBLE_EQ(at(events[0], "dur").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(at(events[0], "ts").asNumber(), 2.0e6);
}

TEST(TraceEventWriterTest, EmptyRunStillWritesAValidDocument)
{
    TraceEventWriter w;
    std::ostringstream os;
    w.writeJson(os);
    const JsonValue doc = JsonValue::parse(os.str());
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(at(doc, "traceEvents").isArray());
    EXPECT_TRUE(at(doc, "traceEvents").asArray().empty());
    EXPECT_EQ(w.eventCount(), 0u);
}

} // namespace
} // namespace pacache::obs
