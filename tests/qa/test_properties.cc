#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "cache/belady.hh"
#include "core/opg.hh"
#include "qa/naive_oracle.hh"
#include "qa/properties.hh"
#include "qa/trace_gen.hh"
#include "support/faulty_belady.hh"

namespace pacache::qa
{
namespace
{

TEST(PropertyRegistry, HasAtLeastEightUniquelyNamedProperties)
{
    const std::vector<PropertyDef> &props = allProperties();
    EXPECT_GE(props.size(), 8u);
    std::set<std::string> names;
    for (const PropertyDef &prop : props) {
        EXPECT_NE(std::string(prop.name), "");
        EXPECT_NE(std::string(prop.description), "");
        EXPECT_TRUE(names.insert(prop.name).second)
            << "duplicate property name " << prop.name;
        EXPECT_TRUE(prop.check) << prop.name << " has no check";
    }
}

TEST(PropertyRegistry, FindPropertyRoundTrips)
{
    for (const PropertyDef &prop : allProperties()) {
        const PropertyDef *found = findProperty(prop.name);
        ASSERT_NE(found, nullptr) << prop.name;
        EXPECT_EQ(std::string(found->name), prop.name);
    }
    EXPECT_EQ(findProperty("no_such_property"), nullptr);
}

TEST(PropertyRegistry, RunPropertyConvertsExceptionsToFailures)
{
    PropertyDef thrower{
        "thrower", "always throws",
        [](const FuzzCase &) -> PropertyResult {
            throw std::runtime_error("synthetic explosion");
        }};
    const FuzzCase c = makeCase(1, 0);
    const PropertyResult result = runProperty(thrower, c);
    EXPECT_FALSE(result.passed);
    EXPECT_NE(result.message.find("synthetic explosion"),
              std::string::npos)
        << result.message;
}

TEST(PropertyRegistry, WholeRegistryPassesOnGeneratedCases)
{
    // The fuzz campaign at scale lives behind the fuzz-smoke ctest
    // label; this is the in-suite sanity slice.
    CaseProfile profile;
    profile.maxRequests = 400;
    for (uint64_t i = 0; i < 4; ++i) {
        const FuzzCase c = makeCase(1234, i, profile);
        for (const PropertyDef &prop : allProperties()) {
            const PropertyResult result = runProperty(prop, c);
            EXPECT_TRUE(result.passed)
                << prop.name << " failed on case " << i << " (seed "
                << c.seed << "): " << result.message;
        }
    }
}

FuzzCase
divergingCase()
{
    // Cache of 2; at the miss on block 3 the residents' next uses
    // differ (block 1 is re-referenced before block 2), so
    // furthest-first and nearest-first evict different victims.
    FuzzCase c;
    c.seed = 0;
    c.cfg.cacheBlocks = 2;
    c.trace.append({0.0, 0, 1, 1, false});
    c.trace.append({1.0, 0, 2, 1, false});
    c.trace.append({2.0, 0, 3, 1, false});
    c.trace.append({3.0, 0, 1, 1, false});
    c.trace.append({4.0, 0, 2, 1, false});
    return c;
}

TEST(PolicyDifferential, EquivalentPoliciesPass)
{
    const FuzzCase c = divergingCase();
    const std::vector<BlockAccess> accesses = expandTrace(c.trace);
    BeladyPolicy fast;
    fast.prepareWindowed(WindowedFuture(accesses));
    NaiveOracle ref;
    ref.prepare(accesses);
    const PropertyResult result = checkPolicyDifferential(c, fast, ref);
    EXPECT_TRUE(result.passed) << result.message;
}

TEST(PolicyDifferential, CatchesInjectedNearestNextFault)
{
    const FuzzCase c = divergingCase();
    const std::vector<BlockAccess> accesses = expandTrace(c.trace);
    test::NearestNextPolicy buggy;
    buggy.prepareWindowed(WindowedFuture(accesses));
    NaiveOracle ref;
    ref.prepare(accesses);
    const PropertyResult result = checkPolicyDifferential(c, buggy, ref);
    ASSERT_FALSE(result.passed)
        << "harness must flag the inverted eviction order";
    EXPECT_NE(result.message.find("evicts"), std::string::npos)
        << "message should name the diverging eviction: "
        << result.message;
}

TEST(PolicyDifferential, CatchesFaultAcrossGeneratedCases)
{
    // The injected fault must also be visible to plain generated
    // cases, not just the handcrafted one: scan a few and expect at
    // least one divergence (cache pressure makes eviction order
    // matter in nearly every case).
    CaseProfile profile;
    profile.maxRequests = 400;
    profile.maxCacheBlocks = 32;
    int caught = 0;
    for (uint64_t i = 0; i < 6; ++i) {
        const FuzzCase c = makeCase(777, i, profile);
        const std::vector<BlockAccess> accesses = expandTrace(c.trace);
        test::NearestNextPolicy buggy;
        buggy.prepareWindowed(WindowedFuture(accesses));
        NaiveOracle ref;
        ref.prepare(accesses);
        if (!checkPolicyDifferential(c, buggy, ref).passed)
            ++caught;
    }
    EXPECT_GT(caught, 0);
}

TEST(PolicyDifferential, CatchesMispricedOpgAcrossGeneratedCases)
{
    // The OPG differential must see a wrong OPG, not only a wrong
    // MIN: an OpgPolicy priced by the other DPM's energy curve, and
    // one whose penalty floor theta is off, must each diverge from
    // the reference on at least one generated case.
    CaseProfile profile;
    profile.maxRequests = 400;
    profile.maxCacheBlocks = 32;
    int otherCurve = 0, wrongTheta = 0;
    for (uint64_t i = 0; i < 12; ++i) {
        const FuzzCase c = makeCase(919, i, profile);
        const PowerModel pm = c.powerModel();
        const DpmKind other = c.cfg.dpmKind == DpmKind::Oracle
            ? DpmKind::Practical
            : DpmKind::Oracle;
        const std::vector<BlockAccess> accesses = expandTrace(c.trace);
        OpgPolicy mispriced(pm, other, c.cfg.theta);
        mispriced.prepareWindowed(WindowedFuture(accesses));
        NaiveOracle ref(pm, c.cfg.dpmKind, c.cfg.theta);
        ref.prepare(accesses);
        if (!checkPolicyDifferential(c, mispriced, ref).passed)
            ++otherCurve;
        OpgPolicy pure(pm, c.cfg.dpmKind, 0.0);
        pure.prepareWindowed(WindowedFuture(accesses));
        NaiveOracle floored(pm, c.cfg.dpmKind, 29.6);
        floored.prepare(accesses);
        if (!checkPolicyDifferential(c, pure, floored).passed)
            ++wrongTheta;
    }
    EXPECT_GT(otherCurve, 0);
    EXPECT_GT(wrongTheta, 0);
}

} // namespace
} // namespace pacache::qa
