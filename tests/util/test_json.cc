#include <gtest/gtest.h>

#include <sstream>

#include "util/json.hh"

namespace pacache
{
namespace
{

TEST(JsonValue, ParsesScalars)
{
    EXPECT_TRUE(JsonValue::parse("null").isNull());
    EXPECT_TRUE(JsonValue::parse("true").asBool());
    EXPECT_FALSE(JsonValue::parse("false").asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(JsonValue::parse("\"hi\"").asString(), "hi");
}

TEST(JsonValue, ParsesNestedDocument)
{
    const JsonValue v = JsonValue::parse(R"({
        "policies": ["lru", "pa-lru"],
        "cache_mb": [32, 64],
        "nested": {"deep": {"flag": true}},
        "label": "fig6"
    })");
    ASSERT_TRUE(v.isObject());
    const JsonValue *policies = v.find("policies");
    ASSERT_NE(policies, nullptr);
    ASSERT_TRUE(policies->isArray());
    ASSERT_EQ(policies->asArray().size(), 2u);
    EXPECT_EQ(policies->asArray()[0].asString(), "lru");
    EXPECT_EQ(policies->asArray()[1].asString(), "pa-lru");

    const JsonValue *sizes = v.find("cache_mb");
    ASSERT_NE(sizes, nullptr);
    EXPECT_DOUBLE_EQ(sizes->asArray()[1].asNumber(), 64.0);

    const JsonValue *deep = v.find("nested")->find("deep");
    ASSERT_NE(deep, nullptr);
    EXPECT_TRUE(deep->find("flag")->asBool());

    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(JsonValue, StringEscapes)
{
    const JsonValue v =
        JsonValue::parse(R"("a\"b\\c\/d\n\tAé")");
    EXPECT_EQ(v.asString(), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(JsonValue, EmptyContainers)
{
    EXPECT_TRUE(JsonValue::parse("[]").asArray().empty());
    EXPECT_TRUE(JsonValue::parse("{}").asObject().empty());
    EXPECT_TRUE(JsonValue::parse(" [ ] ").asArray().empty());
}

TEST(JsonValue, RejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("tru"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("1 2"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("nan"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{1:2}"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("[1 2]"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("nul"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("@"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("-"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("1.2.3"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("\"\\x\""), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("\"\\"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("\"\\u12\""), std::runtime_error);
}

TEST(JsonValue, KindMismatchIsFatal)
{
    const JsonValue v = JsonValue::parse("42");
    EXPECT_THROW(v.asString(), std::exception);
    EXPECT_THROW(v.asArray(), std::exception);
    EXPECT_EQ(v.find("key"), nullptr); // find on non-object is benign
}

TEST(JsonValue, RoundTripsThroughWriter)
{
    // A document produced by JsonWriter must parse back.
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.kv("name", "sweep");
        w.key("sizes").beginArray().value(16).value(32).endArray();
        w.kv("ratio", 0.125);
        w.kv("enabled", true);
        w.endObject();
    }
    const JsonValue v = JsonValue::parse(os.str());
    EXPECT_EQ(v.find("name")->asString(), "sweep");
    EXPECT_DOUBLE_EQ(v.find("sizes")->asArray()[1].asNumber(), 32.0);
    EXPECT_DOUBLE_EQ(v.find("ratio")->asNumber(), 0.125);
    EXPECT_TRUE(v.find("enabled")->asBool());
}

} // namespace
} // namespace pacache
